package core

// StepVectors exposes the derivative f and the elimination right-hand
// side yRHS the engine last computed, for the dense-oracle test.
func StepVectors(e *Engine) (f, yRHS []float64) { return e.f, e.yRHS }
