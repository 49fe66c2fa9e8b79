package batch

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harvsim/internal/core"
	"harvsim/internal/harvester"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bits.txt from the current engine")

const goldenPath = "testdata/golden_bits.txt"

// goldenJobs are the runs whose every output bit TestGoldenBits pins:
// the Table I charge grid at three multiplier sizes and two coil
// resistances, a charge from empty, a short Scenario1 (digital events,
// Invalidate restarts), a Duffing spring under wideband noise and one
// bistable seed.
func goldenJobs() []Job {
	var jobs []Job
	for _, stages := range []int{3, 5, 10} {
		for _, rc := range []float64{150, 2200} {
			sc := harvester.ChargeScenario(0.25)
			sc.Cfg.InitialVc = 2.5
			sc.Cfg.Dickson.Stages = stages
			sc.Cfg.Microgen.Rc = rc
			jobs = append(jobs, Job{Name: fmt.Sprintf("charge-%dst-rc%g", stages, rc), Scenario: sc})
		}
	}
	jobs = append(jobs, Job{Name: "charge-empty", Scenario: harvester.ChargeScenario(0.25)})

	s1 := harvester.Scenario1(harvester.Quick)
	s1.Duration = 30
	jobs = append(jobs, Job{Name: "scenario1-short", Scenario: s1})

	noise := harvester.NoiseScenario(0.5, 55, 85, 42)
	noise.Cfg.VibNoise.RMS = 2
	noise.Cfg.Microgen.K3 = harvester.DuffingK3Strong
	jobs = append(jobs, Job{Name: "duffing-noise", Scenario: noise})

	bi := harvester.BistableScenario(0.5, harvester.BistableWellM, harvester.BistableBarrierJ,
		120, -3.4e4, 8, 40, 3)
	jobs = append(jobs, Job{Name: "bistable-seed3", Scenario: bi})
	return jobs
}

// goldenLines renders a result as "name field hexbits" lines: floats by
// math.Float64bits, counters exactly.
func goldenLines(r Result) []string {
	var out []string
	f := func(field string, v float64) {
		out = append(out, fmt.Sprintf("%s %s %#016x", r.Name, field, math.Float64bits(v)))
	}
	n := func(field string, v int) {
		out = append(out, fmt.Sprintf("%s %s %d", r.Name, field, v))
	}
	f("FinalVc", r.FinalVc)
	f("RMSPower", r.RMSPower)
	f("MeanPower", r.MeanPower)
	f("Energy.Harvested", r.Energy.Harvested)
	f("Energy.ToStore", r.Energy.ToStore)
	f("Energy.Load", r.Energy.Load)
	f("Energy.StoredT0", r.Energy.StoredT0)
	f("Energy.StoredT1", r.Energy.StoredT1)
	for i, v := range r.FinalState {
		f(fmt.Sprintf("FinalState[%d]", i), v)
	}
	n("Steps", r.Stats.Steps)
	n("Rejected", r.Stats.Rejected)
	n("Refactors", r.Stats.Refactors)
	n("Solves", r.Stats.Solves)
	n("StabilityRecomputes", r.Stats.StabilityRecomputes)
	n("Restarts", r.Stats.Restarts)
	n("EventsFired", r.Stats.EventsFired)
	f("HMean", r.Stats.HMean)
	return out
}

// divergenceLines runs the stability ablation's over-cap marches (the
// paper's Eq. 7 bound deliberately exceeded, accuracy control and LLE
// monitor disabled) and records how each ends. At 2x and 4x the march
// survives with a blown-up state (the ablation's own failure check);
// from 8x the derivative overflows and the run stops with an error whose
// text carries the divergence time.
func divergenceLines(t *testing.T) []string {
	var out []string
	for _, factor := range []float64{2, 4, 8, 16, 64} {
		sc := harvester.ChargeScenario(2)
		sc.Cfg.InitialVc = 2.5
		h := harvester.New(sc.Cfg)
		eng := core.NewEngine(h.Sys)
		eng.Events = h.Kernel
		eng.StabilityFactor = factor
		eng.Ctl.HMax = 1e-3
		eng.Ctl.Rtol = 1e9
		eng.Ctl.Atol = 1e9
		eng.LLETol = 1e18
		err := eng.Run(0, sc.Duration)
		name := fmt.Sprintf("stability-%gx", factor)
		if factor >= 8 && err == nil {
			t.Errorf("%s: march far past the stability cap did not diverge", name)
		}
		msg := "none"
		if err != nil {
			msg = err.Error()
		}
		out = append(out,
			fmt.Sprintf("%s Err %q", name, msg),
			fmt.Sprintf("%s Steps %d", name, eng.Stats.Steps),
			fmt.Sprintf("%s Rejected %d", name, eng.Stats.Rejected),
			fmt.Sprintf("%s Refreshes %d", name, eng.Stats.Refreshes),
			fmt.Sprintf("%s StabilityRecomputes %d", name, eng.Stats.StabilityRecomputes))
		for i, v := range eng.State() {
			out = append(out, fmt.Sprintf("%s State[%d] %#016x", name, i, math.Float64bits(v)))
		}
	}
	return out
}

// TestGoldenBits pins the proposed engine's output bit for bit against
// testdata/golden_bits.txt: final voltages, power and energy integrals,
// final states, step/refactor/stability counters, and the error text of
// the diverging stability-ablation marches. Any change to the step
// arithmetic, however small, shows up here. Regenerate (only for an
// intended numerical change) with
//
//	go test ./internal/batch -run TestGoldenBits -update-golden
func TestGoldenBits(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs")
	}
	jobs := goldenJobs()
	var got []string
	for _, r := range RunSerial(jobs, Options{}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if r.Name == "scenario1-short" && r.Stats.Restarts == 0 {
			t.Fatalf("test premise broken: %s fired no analogue-changing events", r.Name)
		}
		got = append(got, goldenLines(r)...)
	}
	got = append(got, divergenceLines(t)...)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var want []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			if bad++; bad >= 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
