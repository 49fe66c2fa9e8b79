package harvester

import (
	"runtime"
	"strings"
	"testing"

	"harvsim/internal/core"
	"harvsim/internal/trace"
)

// TestWarmStepZeroAllocs pins the allocation-free hot path: once the
// engine is warm (workspace bound, stability caches built, trace
// capacity reserved), an accepted simulation step — linearise,
// eliminate, observe, Adams-Bashforth update, including the periodic
// Jyy refactorisations and stability recomputes the march triggers —
// performs zero heap allocations.
func TestWarmStepZeroAllocs(t *testing.T) {
	sc := ChargeScenario(1000) // horizon far beyond the steps taken here
	sc.Cfg.InitialVc = 2.5     // working point: diode segments active
	h, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*trace.Series{h.VcTrace, h.PMultIn, h.PStoreTrace, h.FresTrace} {
		s.Reserve(1 << 16)
	}
	eng, ok := h.NewEngine(Proposed, 1).(*core.Engine)
	if !ok {
		t.Fatal("proposed engine is not a core.Engine")
	}
	if err := eng.Begin(0, sc.Duration); err != nil {
		t.Fatal(err)
	}
	// Warm-up: fill the AB history, settle the PWL segments and trigger
	// the first stability analyses.
	for i := 0; i < 2000; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	stepErr := error(nil)
	avg := testing.AllocsPerRun(500, func() {
		if _, err := eng.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Fatalf("warm steady-state step allocates %.3f objects/step, want 0", avg)
	}
	if eng.Stats.StabilityRecomputes < 2 {
		t.Fatalf("test premise broken: only %d stability recomputes during warm march",
			eng.Stats.StabilityRecomputes)
	}
}

// TestWarmStepZeroAllocsDuffingNoise extends the zero-alloc pin to the
// nonlinear/stochastic workload: the Duffing re-tangent path (restamp +
// Jyy refactor + stability drift accounting) and the band-limited noise
// evaluation must both stay on the allocation-free hot path.
func TestWarmStepZeroAllocsDuffingNoise(t *testing.T) {
	sc := NoiseScenario(1000, 55, 85, 42)
	sc.Cfg.VibNoise.RMS = 2 // strong drive: frequent re-tangents
	sc.Cfg.Microgen.K3 = DuffingK3Strong
	h, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*trace.Series{h.VcTrace, h.PMultIn, h.PStoreTrace, h.FresTrace} {
		s.Reserve(1 << 16)
	}
	eng, ok := h.NewEngine(Proposed, 1).(*core.Engine)
	if !ok {
		t.Fatal("proposed engine is not a core.Engine")
	}
	if err := eng.Begin(0, sc.Duration); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	refreshesBefore := eng.Stats.Refreshes
	stepErr := error(nil)
	avg := testing.AllocsPerRun(500, func() {
		if _, err := eng.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Fatalf("warm Duffing/noise step allocates %.3f objects/step, want 0", avg)
	}
	if eng.Stats.Refreshes == refreshesBefore {
		t.Fatal("test premise broken: no Duffing re-tangents during the measured steps")
	}
}

// TestWarmStepZeroAllocsAfterReset pins the batch reuse path's step
// cost: an engine rebuilt on the same harvester after Reset steps
// without allocating, because the workspace, history ring and trace
// buffers all survive the Reset.
func TestWarmStepZeroAllocsAfterReset(t *testing.T) {
	sc := ChargeScenario(1000)
	sc.Cfg.InitialVc = 2.5
	h, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*trace.Series{h.VcTrace, h.PMultIn, h.PStoreTrace, h.FresTrace} {
		s.Reserve(1 << 16)
	}
	run := func() *core.Engine {
		eng := h.NewEngine(Proposed, 1).(*core.Engine)
		if err := eng.Begin(0, sc.Duration); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1500; i++ {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	first := run()
	first.Reset()
	h.Reset()
	eng := run()
	var stepErr error
	avg := testing.AllocsPerRun(500, func() {
		if _, err := eng.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Fatalf("warm step after Reset allocates %.3f objects/step, want 0", avg)
	}
}

// TestWarmPooledRunAllocs pins the heap allocations of one warm pooled
// job — AssembleWith on a recycled workspace, a full run, Release — to
// at most the counts the engine needed with dense step products. The
// stamp pattern's masks and entry lists are pooled with the Jacobians,
// so a warm job allocates nothing for them. The counts include map and
// slice-growth allocations whose number depends on the Go release, so
// the pin applies to the release it was measured with.
func TestWarmPooledRunAllocs(t *testing.T) {
	if v := runtime.Version(); !strings.HasPrefix(v, "go1.24") {
		t.Skipf("allocation counts measured with go1.24; running %s", v)
	}
	charge := ChargeScenario(0.05)
	charge.Cfg.InitialVc = 2.5
	bistable := BistableScenario(0.05, BistableWellM, BistableBarrierJ, 120, -3.4e4, 8, 40, 3)
	for _, tc := range []struct {
		name string
		sc   Scenario
		max  float64
	}{
		{"charge", charge, 119},
		{"bistable", bistable, 126},
	} {
		pool := core.NewWorkspacePool()
		var runErr error
		run := func() {
			h, err := AssembleWith(tc.sc, pool)
			if err != nil {
				runErr = err
				return
			}
			if _, err := h.Run(Proposed, tc.sc.Duration, 1); err != nil {
				runErr = err
			}
			h.Release()
		}
		run() // warm the pool
		avg := testing.AllocsPerRun(10, run)
		if runErr != nil {
			t.Fatal(runErr)
		}
		if avg > tc.max {
			t.Errorf("%s: warm pooled run allocates %.0f objects, want <= %.0f", tc.name, avg, tc.max)
		}
	}
}
