package core

import (
	"fmt"
	"math"
	"time"

	"harvsim/internal/la"
	"harvsim/internal/ode"
)

// Observer is called after every accepted time point with the current
// state and terminal-variable vectors. The slices are views and must not
// be retained.
type Observer func(t float64, x, y []float64)

// Events lets a digital kernel co-simulate with the analogue engine: the
// engine never steps across the next pending event time, and calls Fire
// when it lands on one. Fire processes every event due at or before now
// and returns true when the digital activity changed an analogue
// parameter (a discontinuity), which invalidates the linearisation and
// restarts the multistep history — possible precisely because the
// explicit solution is a single march-in-time sweep with no backtracking
// (paper Section II).
type Events interface {
	// Next returns the earliest pending event time, or +Inf when none.
	Next() float64
	// Fire executes all events due at or before now.
	Fire(now float64) (analogueChanged bool)
}

// Stats reports the work an engine run performed.
type Stats struct {
	Steps               int     // accepted steps
	Rejected            int     // rejected step attempts
	Refreshes           int     // linearisation refreshes (Jyy refactorisations)
	YSolves             int     // terminal-variable elimination solves
	EventsFired         int     // digital event batches fired
	Restarts            int     // multistep history restarts (discontinuities)
	StabilityRecomputes int     // reduced-matrix stability analyses
	MaxJacChange        float64 // largest relative Jacobian change seen (LLE monitor)
	HStabMin            float64 // tightest stability cap encountered
	HMean               float64 // mean accepted step
	SimTime             float64 // simulated span
}

// PhaseTimes accumulates wall time per engine refresh phase when a run
// is traced (Engine.Phases). Refactor covers the Jyy factorisation of
// every linearisation refresh; Stability covers the reduced-matrix
// stability analyses. The accumulators are observer-grade: attaching
// them changes no numerical behaviour, and a nil pointer (the default)
// costs nothing on the warm step.
type PhaseTimes struct {
	Refactor  time.Duration
	Stability time.Duration
}

// Engine is the proposed linearised state-space simulator: explicit
// integration (variable-step Adams-Bashforth by default) of the
// linearised model with terminal-variable elimination at every step.
type Engine struct {
	Sys   *System
	Ctl   ode.Controller
	Order int // Adams-Bashforth order (1..ode.MaxABOrder), default 4

	Events    Events     // optional digital kernel
	Observers []Observer // waveform probes

	// LLETol bounds the per-refresh relative Jacobian change (the local
	// linearisation error monitor of paper Eq. 3); when exceeded the next
	// step is halved. Default 0.5.
	LLETol float64

	// ResolveSegments enables one extra linearise/solve pass per step
	// when the freshly solved terminal variables land on a different PWL
	// segment than the one used for the linearisation. Default true.
	ResolveSegments bool

	// StabilityFactor scales the stability step cap (default 1.0).
	// Values above 1 deliberately violate the diagonal-dominance bound —
	// used by the stability ablation to demonstrate the divergence the
	// paper's Eq. 7 predicts.
	StabilityFactor float64

	// Phases, when set, accumulates wall time spent in the engine's two
	// expensive refresh phases — Jyy refactorisation and the reduced-
	// matrix stability analysis — the engine-level tail of the sweep
	// fabric's tracing (internal/tracing). nil (the default) records
	// nothing: the march pays two nil checks per refresh and none per
	// step, so the warm step's zero-allocation contract is untouched
	// (pinned by TestTraceOffZeroOverhead and the trace-overhead
	// benchmark gate).
	Phases *PhaseTimes

	Stats Stats

	// ws owns all run storage. It is bound on first use — from the
	// system's pooled workspace when one exists, freshly allocated
	// otherwise — and reused by every subsequent Run of the same shape.
	ws *Workspace

	// Views into ws, bound by ensureWorkspace.
	x, y, yRHS, f []float64
	fXY           []float64 // Jxy*y term of f
	xNext, xLow   []float64
	errv          []float64
	luYY          *la.LU
	red           *la.Matrix // reduced state matrix Jxx - Jxy*inv(Jyy)*Jyx
	bal           *la.Matrix // balanced copy of red for stability analysis
	kMat          *la.Matrix // inv(Jyy)*Jyx
	hist          *ode.History
	times         []float64
	coefP, coefL  []float64
	dScale        []float64 // cached balancing scales

	hStab      float64 // forward-Euler real-mode cap (diagnostic)
	hRealFE    float64 // real-mode FE cap from the balanced analysis
	rhoOsc     float64 // Gershgorin bound on oscillatory-mode |lambda|
	driftAccum float64 // accumulated Jacobian drift since last analysis
	sinceStab  int     // refreshes since the last stability analysis
	scaleAge   int

	// March state, valid between Begin and Finish.
	running     bool
	t0, t, tEnd float64
	h, hSum     float64
	shrinkNext  float64
}

// NewEngine returns an engine for the (built or unbuilt) system with
// default controller settings.
func NewEngine(sys *System) *Engine {
	return &Engine{
		Sys:             sys,
		Ctl:             ode.DefaultController(),
		Order:           4,
		LLETol:          0.5,
		ResolveSegments: true,
	}
}

// Observe registers a waveform probe.
func (e *Engine) Observe(o Observer) { e.Observers = append(e.Observers, o) }

// State returns the engine's current state vector (live view).
func (e *Engine) State() []float64 { return e.x }

// Terminals returns the engine's current terminal-variable vector (live
// view).
func (e *Engine) Terminals() []float64 { return e.y }

// ensureWorkspace binds the engine to run storage: the system's pooled
// workspace when one exists, the engine's previous workspace when the
// shape still matches, or a freshly allocated one. After the first call
// nothing here allocates, which is what makes Run re-runnable and Reset
// cheap.
func (e *Engine) ensureWorkspace() error {
	if err := e.Sys.Build(); err != nil {
		return err
	}
	if e.Order < 1 || e.Order > ode.MaxABOrder {
		return fmt.Errorf("core: AB order %d out of range [1,%d]", e.Order, ode.MaxABOrder)
	}
	nx, ny := e.Sys.NX(), e.Sys.NY()
	ws := e.Sys.Workspace()
	if ws != nil && ws.owner != nil && ws.owner != e {
		// Another engine already marches on the system's workspace; this
		// one gets private storage rather than aliasing its state.
		ws = nil
	}
	if ws == nil {
		ws = e.ws
	}
	if ws == nil || !ws.Fits(nx, ny) {
		ws = NewWorkspace(nx, ny)
	}
	ws.owner = e
	if e.ws == ws && e.x != nil {
		return nil
	}
	e.ws = ws
	e.x, e.y, e.yRHS, e.f, e.fXY = ws.x, ws.y, ws.yRHS, ws.f, ws.fXY
	e.xNext, e.xLow, e.errv = ws.xNext, ws.xLow, ws.errv
	e.luYY = ws.luYY
	e.red, e.bal, e.kMat = ws.red, ws.bal, ws.kM
	e.hist = ws.hist
	e.times, e.coefP, e.coefL = ws.times, ws.coefP, ws.coefL
	e.dScale = ws.dScale
	return nil
}

// Workspace returns the workspace backing the engine (nil before the
// first Begin/Run when the system has no pooled workspace either).
func (e *Engine) Workspace() *Workspace { return e.ws }

// refresh refactors Jyy (needed for the next elimination solve) and, when
// the Jacobian moved materially since the last stability analysis,
// recomputes the reduced state matrix and its stability cap. Returns the
// relative Jacobian change for the LLE monitor.
//
// Splitting the cheap refactorisation (every PWL segment change) from
// the stability analysis (only on material drift, with a safety margin
// absorbing the rest) keeps the per-step cost of the explicit march at a
// few hundred flops, which is where the technique's speedup lives.
func (e *Engine) refresh(first bool) (relChange float64, err error) {
	s := e.Sys
	var phaseStart time.Time
	if e.Phases != nil {
		phaseStart = time.Now()
	}
	if err := e.luYY.Factor(s.Jyy); err != nil {
		return 0, fmt.Errorf("core: terminal elimination matrix singular: %w", err)
	}
	if e.Phases != nil {
		e.Phases.Refactor += time.Since(phaseStart)
	}
	s.pat.sync()
	if rel := e.jacChange(); !first {
		relChange = rel
	}
	e.Stats.Refreshes++
	if relChange > e.Stats.MaxJacChange {
		e.Stats.MaxJacChange = relChange
	}
	e.driftAccum += relChange
	e.sinceStab++
	if first || e.driftAccum > 0.10 || e.sinceStab >= 64 {
		if err := e.refreshStability(); err != nil {
			return relChange, err
		}
	}
	return relChange, nil
}

// refreshStability recomputes the reduced state matrix
// Jxx - Jxy*inv(Jyy)*Jyx and its explicit-integration step caps.
func (e *Engine) refreshStability() error {
	var phaseStart time.Time
	if e.Phases != nil {
		phaseStart = time.Now()
	}
	s := e.Sys
	// K = inv(Jyy) * Jyx, column by column.
	if err := e.luYY.SolveMatrix(e.kMat, s.Jyx); err != nil {
		return err
	}
	// red = Jxx - Jxy*K.
	e.red.CopyFrom(s.Jxx)
	nx, ny := s.NX(), s.NY()
	for i := 0; i < nx; i++ {
		row := e.red.Row(i)
		bRow := s.Jxy.Row(i)
		for k := 0; k < ny; k++ {
			bv := bRow[k]
			if bv == 0 {
				continue
			}
			kRow := e.kMat.Row(k)
			for j := 0; j < nx; j++ {
				row[j] -= bv * kRow[j]
			}
		}
	}
	// Stability analysis of the reduced matrix: balance (an eigenvalue-
	// preserving similarity that removes physical-unit scaling artefacts
	// such as 1/L vs 1/C off-diagonals), then split the rows into fast
	// real modes — handled by the paper's diagonal-dominance criterion —
	// and oscillatory modes, bounded through the Gershgorin disc reach
	// and the imaginary-axis extent of the Adams-Bashforth stability
	// region.
	// The balancing scales drift slowly; recompute them occasionally and
	// re-apply the cached similarity in a single cheap pass otherwise.
	if e.scaleAge >= 16 {
		la.BalanceScales(e.red, 6, e.dScale)
		e.scaleAge = 0
	}
	e.scaleAge++
	la.ApplyBalance(e.bal, e.red, e.dScale)
	hReal, rhoOsc, unstable := la.StepLimitProfile(e.bal)
	if unstable {
		// A locally non-passive dominant row: fall back to the spectral
		// radius of the full reduced matrix (paper Eq. 7).
		rho := la.SpectralRadiusEstimateInto(e.bal, 100, e.ws.powX, e.ws.powY)
		if rho > rhoOsc {
			rhoOsc = rho
		}
		hReal = math.Min(hReal, 0.5/math.Max(rho, 1e-300))
	}
	e.hRealFE = hReal
	e.rhoOsc = rhoOsc
	if e.Phases != nil {
		e.Phases.Stability += time.Since(phaseStart)
	}
	hs := e.stabCapFor(1)
	e.hStab = e.hRealFE
	if hs < e.Stats.HStabMin {
		e.Stats.HStabMin = hs
	}
	e.driftAccum = 0
	e.sinceStab = 0
	e.Stats.StabilityRecomputes++
	return nil
}

// jacChange returns the largest relative change of any Jacobian entry
// since the previous refresh — the paper's monitor for the local
// linearisation error (Eq. 3) — and takes the snapshot the next call
// compares against.
//
// Only the stamped positions are scanned: every other position is still
// the zero Build wrote, and the pattern snapshots a position that joins
// it as 0, as a full-matrix snapshot taken before its first stamp would
// hold. An entry equal to its snapshot is left as it is (the two can
// differ only in the sign of a zero, which the monitor cannot see), so
// after any call the snapshot matches the Jacobians and a run's first
// refresh needs no cleared snapshot.
func (e *Engine) jacChange() float64 {
	var worst float64
	s := e.Sys
	cur := [4]*la.Matrix{s.Jxx, s.Jxy, s.Jyx, s.Jyy}
	for b, m := range cur {
		row, col, prev := s.pat.entries(b)
		for i, r := range row {
			v := m.Data[int(r)*m.Cols+int(col[i])]
			d := math.Abs(v - prev[i])
			if d == 0 {
				continue
			}
			rel := d / (1 + math.Abs(prev[i]))
			prev[i] = v
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst
}

// solveY eliminates the non-state variables at the current point:
// Jyy*y = -(Jyx*x + Ey) (paper Eq. 4).
func (e *Engine) solveY() error {
	s := e.Sys
	s.pat.sync()
	s.pat.mulVec(e.yRHS, blkYX, s.Jyx, e.x)
	for i := range e.yRHS {
		e.yRHS[i] = -(e.yRHS[i] + s.Ey[i])
	}
	e.Stats.YSolves++
	return e.luYY.Solve(e.y, e.yRHS)
}

// deriv computes xdot = Jxx*x + Jxy*y + Ex into e.f, summing the two
// products separately (into f and fXY) before adding them.
func (e *Engine) deriv() {
	s := e.Sys
	s.pat.sync()
	s.pat.mulVec(e.f, blkXX, s.Jxx, e.x)
	s.pat.mulVec(e.fXY, blkXY, s.Jxy, e.y)
	for i := range e.f {
		e.f[i] += e.fXY[i]
		e.f[i] += s.Ex[i]
	}
}

// Begin prepares a march over [t0, tEnd]: binds the workspace, resets
// the run state, takes the blocks' initial conditions and establishes
// the first consistent linearisation. After Begin the engine is stepped
// with Step until done, then closed with Finish; Run does all three.
func (e *Engine) Begin(t0, tEnd float64) error {
	if tEnd <= t0 {
		return fmt.Errorf("core: empty time span [%g, %g]", t0, tEnd)
	}
	if err := e.ensureWorkspace(); err != nil {
		return err
	}
	e.Stats = Stats{HStabMin: math.Inf(1)}
	// Reused storage carries the previous run's values; clear everything
	// the first linearisation reads so a reused run is bit-identical to a
	// fresh one.
	la.ZeroVec(e.x)
	la.ZeroVec(e.y)
	e.hist.Reset()
	e.driftAccum, e.sinceStab = 0, 0
	e.scaleAge = 1 << 30 // force a balancing-scale recompute
	e.Sys.InitState(e.x)
	e.t0, e.t, e.tEnd = t0, t0, tEnd

	e.Sys.Linearise(e.t, e.x, e.y)
	if _, err := e.refresh(true); err != nil {
		return err
	}
	if err := e.solveY(); err != nil {
		return err
	}
	if e.ResolveSegments {
		if e.Sys.Linearise(e.t, e.x, e.y) {
			if _, err := e.refresh(true); err != nil {
				return err
			}
			if err := e.solveY(); err != nil {
				return err
			}
		}
	}

	e.h = e.Ctl.Clamp(math.Min(e.Ctl.HMax, (e.tEnd-e.t0)/10), e.stabCap())
	e.hSum = 0
	e.shrinkNext = 1.0
	e.running = true
	return nil
}

// Step advances the march by one accepted step (including any digital
// events landed on) and reports whether the horizon has been reached.
// After warm-up — once the traces and stability caches are sized — a
// step performs zero heap allocations; testing.AllocsPerRun pins this.
func (e *Engine) Step() (done bool, err error) {
	if !e.running {
		return false, fmt.Errorf("core: Step without Begin")
	}
	if e.t >= e.tEnd {
		return true, nil
	}
	// 1. Linearise at the current point (values known from the march)
	// and refresh the elimination factorisation if anything changed.
	if e.Sys.Linearise(e.t, e.x, e.y) {
		rel, err := e.refresh(false)
		if err != nil {
			return false, err
		}
		if rel > e.LLETol {
			e.shrinkNext = 0.5
		}
	}
	// 2. Eliminate the non-state variables (Eq. 4).
	if err := e.solveY(); err != nil {
		return false, err
	}
	if e.ResolveSegments && e.Sys.Linearise(e.t, e.x, e.y) {
		if _, err := e.refresh(false); err != nil {
			return false, err
		}
		if err := e.solveY(); err != nil {
			return false, err
		}
	}
	// 3. Observe the consistent point (t, x, y).
	for _, o := range e.Observers {
		o(e.t, e.x, e.y)
	}
	// 4. Derivative and history for the Adams-Bashforth formula.
	e.deriv()
	if !la.AllFinite(e.f) {
		return false, fmt.Errorf("core: non-finite derivative at t=%g (diverged)", e.t)
	}
	e.hist.Push(e.t, e.f)

	// 5. Choose the step: accuracy-suggested h, stability cap,
	// event horizon, end of span.
	e.h *= e.shrinkNext
	e.shrinkNext = 1.0
	e.h = e.Ctl.Clamp(e.h, e.stabCap())
	horizon := e.tEnd
	if e.Events != nil {
		if te := e.Events.Next(); te > e.t && te < horizon {
			horizon = te
		}
	}
	hCapped := e.h
	if e.t+hCapped > horizon {
		hCapped = horizon - e.t
	}
	if hCapped <= 0 {
		hCapped = math.Min(e.Ctl.HMin, horizon-e.t)
	}

	// 6. Explicit update (Eq. 5) with embedded lower-order error
	// estimate; retry with a smaller step on tolerance failure.
	for attempt := 0; ; attempt++ {
		e.abUpdate(hCapped)
		errNorm := e.Ctl.ErrNorm(e.errv, e.x)
		accept, hNext := e.Ctl.Decide(hCapped, errNorm, e.abOrderUsed(), e.stabCap())
		if accept || attempt >= 25 {
			copy(e.x, e.xNext)
			e.t += hCapped
			e.Stats.Steps++
			e.hSum += hCapped
			e.h = hNext // horizon caps are transient; resume from the suggestion
			break
		}
		e.Stats.Rejected++
		hCapped = hNext
		if e.t+hCapped > horizon {
			hCapped = horizon - e.t
		}
	}

	// 7. Fire digital events when we land on the horizon.
	if e.Events != nil && e.Events.Next() <= e.t+1e-12 {
		e.Stats.EventsFired++
		if e.Events.Fire(e.t) {
			// Analogue discontinuity: restart the multistep history
			// and force a refresh.
			e.Sys.Invalidate()
			e.hist.Reset()
			e.Stats.Restarts++
			e.h = e.Ctl.Clamp(math.Min(e.h, 0.25*e.hStab), e.stabCap())
		}
	}
	return e.t >= e.tEnd, nil
}

// Finish establishes the final consistent point at the horizon, fires
// the observers on it and closes the run's statistics.
func (e *Engine) Finish() error {
	if !e.running {
		return fmt.Errorf("core: Finish without Begin")
	}
	e.running = false
	if e.Sys.Linearise(e.t, e.x, e.y) {
		if _, err := e.refresh(false); err != nil {
			return err
		}
	}
	if err := e.solveY(); err != nil {
		return err
	}
	for _, o := range e.Observers {
		o(e.t, e.x, e.y)
	}
	if e.Stats.Steps > 0 {
		e.Stats.HMean = e.hSum / float64(e.Stats.Steps)
	}
	e.Stats.SimTime = e.tEnd - e.t0
	return nil
}

// Run marches the system from t0 to tEnd. Initial conditions come from
// the blocks' InitState. Run may be called repeatedly: each call reuses
// the workspace bound on the first and restarts from the blocks' initial
// conditions (see Reset for the full reuse protocol).
func (e *Engine) Run(t0, tEnd float64) error {
	if err := e.Begin(t0, tEnd); err != nil {
		return err
	}
	for {
		done, err := e.Step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return e.Finish()
}

// Reset returns the engine to its pre-run state while keeping every
// allocation: the workspace, history ring and stability caches stay
// bound, ready for the next Run of the same system. It also discards the
// blocks' cached linearisation stamps (System.ResetLinearisation) so the
// rerun restamps from the fresh initial operating point and reproduces a
// freshly assembled engine bit for bit. A Reset engine relinquishes its
// claim on a system-owned workspace, so a successor engine built on the
// same system (the Harvester.Reset + NewEngine flow) inherits the
// storage instead of allocating its own.
func (e *Engine) Reset() {
	e.running = false
	e.Stats = Stats{}
	if e.hist != nil {
		e.hist.Reset()
	}
	if e.ws != nil && e.ws.owner == e {
		e.ws.owner = nil
	}
	e.Sys.ResetLinearisation()
}

// abUpdate computes the Adams-Bashforth update of the highest available
// order into xNext and a one-order-lower companion into xLow; errv
// receives their difference (the local truncation error estimate).
func (e *Engine) abUpdate(h float64) {
	p := e.hist.Depth()
	if p > e.Order {
		p = e.Order
	}
	// The workspace ring holds up to MaxABOrder entries regardless of
	// e.Order; take the newest p abscissae only.
	for i := 0; i < p; i++ {
		ti, _ := e.hist.Entry(i)
		e.times[i] = ti
	}
	times := e.times[:p]
	ode.ABCoeffs(e.coefP[:p], times, h)
	copy(e.xNext, e.x)
	for i := 0; i < p; i++ {
		_, fi := e.hist.Entry(i)
		c := e.coefP[i]
		la.Axpy(c, fi, e.xNext)
	}
	if p == 1 {
		// No lower order available: error estimate from the Euler update
		// magnitude (conservative).
		for i := range e.errv {
			e.errv[i] = 0.5 * (e.xNext[i] - e.x[i])
		}
		return
	}
	ode.ABCoeffs(e.coefL[:p-1], times[:p-1], h)
	copy(e.xLow, e.x)
	for i := 0; i < p-1; i++ {
		_, fi := e.hist.Entry(i)
		la.Axpy(e.coefL[i], fi, e.xLow)
	}
	la.SubTo(e.errv, e.xNext, e.xLow)
}

// abOrderUsed reports the order of the last abUpdate.
func (e *Engine) abOrderUsed() int {
	p := e.hist.Depth()
	if p > e.Order {
		p = e.Order
	}
	if p < 1 {
		p = 1
	}
	return p
}

// stabCapFor returns the stability step cap for an update of order p:
// the minimum of the real-mode cap (forward-Euler diagonal-dominance
// limit scaled by the AB real-axis fraction) and the oscillatory-mode
// cap (AB imaginary-axis extent over the Gershgorin reach).
func (e *Engine) stabCapFor(p int) float64 {
	cap := e.hRealFE * ode.ABStabilityFraction(p)
	if e.rhoOsc > 0 {
		if osc := ode.ABImagExtent(p) / e.rhoOsc; osc < cap {
			cap = osc
		}
	}
	if e.StabilityFactor > 0 {
		cap *= e.StabilityFactor
	}
	return cap
}

// stabCap returns the stability step cap for the order the next update
// will use.
func (e *Engine) stabCap() float64 {
	p := e.hist.Depth()
	if p > e.Order {
		p = e.Order
	}
	if p < 1 {
		p = 1
	}
	return e.stabCapFor(p)
}

// HStab returns the current raw (forward-Euler) stability step cap
// before order scaling (diagnostic).
func (e *Engine) HStab() float64 { return e.hStab }

// Reduced returns the current reduced state matrix (diagnostic; live
// view, valid until the next refresh).
func (e *Engine) Reduced() *la.Matrix { return e.red }
