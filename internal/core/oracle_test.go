package core_test

import (
	"fmt"
	"math"
	"testing"

	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/la"
)

// oracleScenario is one system the stamp-pattern step is checked on.
type oracleScenario struct {
	name string
	sc   harvester.Scenario
}

// oracleScenarios are the Table I charge grid at three multiplier sizes
// and two coil resistances, a short Scenario1 (digital events and
// Invalidate restarts), a Duffing spring under wideband noise and one
// bistable seed.
func oracleScenarios() []oracleScenario {
	var out []oracleScenario
	for _, stages := range []int{3, 5, 10} {
		for _, rc := range []float64{150, 2200} {
			sc := harvester.ChargeScenario(0.25)
			sc.Cfg.InitialVc = 2.5
			sc.Cfg.Dickson.Stages = stages
			sc.Cfg.Microgen.Rc = rc
			out = append(out, oracleScenario{fmt.Sprintf("charge-%dst-rc%g", stages, rc), sc})
		}
	}
	s1 := harvester.Scenario1(harvester.Quick)
	s1.Duration = 30
	out = append(out, oracleScenario{"scenario1-short", s1})

	noise := harvester.NoiseScenario(0.5, 55, 85, 42)
	noise.Cfg.VibNoise.RMS = 2
	noise.Cfg.Microgen.K3 = harvester.DuffingK3Strong
	out = append(out, oracleScenario{"duffing-noise", noise})

	bi := harvester.BistableScenario(0.5, harvester.BistableWellM, harvester.BistableBarrierJ,
		120, -3.4e4, 8, 40, 3)
	out = append(out, oracleScenario{"bistable-seed3", bi})
	return out
}

// denseRowSums returns m*x summed over every stored entry in column
// order, as the dense product the engine's pattern products replace.
func denseRowSums(m *la.Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j, a := range m.Row(i) {
			s += a * x[j]
		}
		out[i] = s
	}
	return out
}

// denseYRHS is the oracle for the elimination right-hand side
// -(Jyx*x + Ey).
func denseYRHS(sys *core.System, x []float64) []float64 {
	out := denseRowSums(sys.Jyx, x)
	for i := range out {
		out[i] = -(out[i] + sys.Ey[i])
	}
	return out
}

// denseDeriv is the oracle for the derivative: f = Jxx*x, then f += Jxy*y
// (summed separately), then f += Ex.
func denseDeriv(sys *core.System, x, y []float64) []float64 {
	f := denseRowSums(sys.Jxx, x)
	fy := denseRowSums(sys.Jxy, y)
	for i := range f {
		f[i] += fy[i]
		f[i] += sys.Ex[i]
	}
	return f
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPatternStepMatchesDenseOracle steps every oracle system and checks,
// on every step, that the derivative f and the elimination right-hand
// side yRHS the engine computed over the stamp pattern equal the dense
// products over the full Jacobians bit for bit.
func TestPatternStepMatchesDenseOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full marches")
	}
	pool := core.NewWorkspacePool()
	for _, tc := range oracleScenarios() {
		t.Run(tc.name, func(t *testing.T) {
			h, err := harvester.AssembleWith(tc.sc, pool)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			eng := h.NewEngine(harvester.Proposed, 1<<20).(*core.Engine)
			sys := h.Sys
			var xs, ys []float64
			bad := 0
			eng.Observe(func(tm float64, x, y []float64) {
				xs, ys = append(xs[:0], x...), append(ys[:0], y...)
				if _, yRHS := core.StepVectors(eng); !sameBits(yRHS, denseYRHS(sys, x)) && bad < 5 {
					bad++
					t.Errorf("t=%g: yRHS %v, dense %v", tm, yRHS, denseYRHS(sys, x))
				}
			})
			if err := eng.Begin(0, tc.sc.Duration); err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				done, err := eng.Step()
				if err != nil {
					t.Fatal(err)
				}
				if f, _ := core.StepVectors(eng); !sameBits(f, denseDeriv(sys, xs, ys)) && bad < 5 {
					bad++
					t.Errorf("step %d: f %v, dense %v", n, f, denseDeriv(sys, xs, ys))
				}
				if done {
					break
				}
			}
			if err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			if tc.name == "scenario1-short" && eng.Stats.Restarts == 0 {
				t.Fatal("test premise broken: no analogue-changing events fired")
			}
		})
	}
}
