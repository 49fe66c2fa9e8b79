package exp

import (
	"math"
	"strings"
	"testing"
	"time"

	"harvsim/internal/harvester"
	"harvsim/internal/testenv"
)

func TestTable1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine run")
	}
	res, err := Table1(3)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(res.Rows))
	}
	out := res.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "PSPICE") {
		t.Fatalf("render incomplete:\n%s", out)
	}

	// Each environment's cost against the proposed engine as a same-run
	// ratio, since one run on a busy machine varies by more than the
	// margins: a 0.1 s charge, min of 151 interleaved runs each. Many
	// short runs let every engine's minimum land in a quiet stretch of
	// the machine, which longer runs often miss. All three must stay
	// 1.2x slower than the proposed engine. BDF2's ratio (the SystemC-A
	// stand-in) has a floor below every clean run on a 2-core VM and
	// above every run with the proposed step made 20% slower, so it
	// catches a regression of that size.
	if testenv.Race() {
		t.Skip("CPU-time ratio is meaningless under the race detector")
	}
	sc := harvester.ChargeScenario(0.1)
	mna := func() (time.Duration, error) {
		r, err := runTable1MNA(sc.Duration)
		return r.CPUTime, err
	}
	best, err := MinCPU(151, engineRun(sc, harvester.ExistingTrap), mna,
		engineRun(sc, harvester.ExistingBDF2), engineRun(sc, harvester.Proposed))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows[:3] {
		ratio := float64(best[i]) / float64(best[3])
		t.Logf("%s %v vs proposed %v: ratio %.2f", row.Simulator, best[i], best[3], ratio)
		if ratio < 1.2 {
			t.Errorf("%s should be slower than proposed: CPU ratio %.2f", row.Simulator, ratio)
		}
	}
	if r := float64(best[2]) / float64(best[3]); r < table1RatioFloor {
		t.Errorf("BDF2/proposed CPU ratio %.2f, want >= %.2f", r, table1RatioFloor)
	}
}

// table1RatioFloor is TestTable1ShapeHolds's floor on the BDF2/proposed
// CPU ratio of the 0.1 s charge.
const table1RatioFloor = 3.85

// engineRun adapts one run of sc under kind to MinCPU, timing the
// engine run alone.
func engineRun(sc harvester.Scenario, kind harvester.EngineKind) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		r, _, err := runTimed(kind.String(), sc, kind, 1<<20)
		return r.CPUTime, err
	}
}

// engineRatio runs sc under slow and fast n times each, interleaved,
// and returns min(slow)/min(fast): how many times more CPU the slow
// engine needs for the same simulated span on this machine.
func engineRatio(t *testing.T, n int, sc harvester.Scenario, slow, fast harvester.EngineKind) float64 {
	t.Helper()
	best, err := MinCPU(n, engineRun(sc, slow), engineRun(sc, fast))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(best[0]) / float64(best[1])
	t.Logf("%s: %s %v, %s %v, ratio %.2f", sc.Name, slow, best[0], fast, best[1], ratio)
	return ratio
}

func TestTable2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine scenario runs")
	}
	res, err := Table2(harvester.Quick)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 scenarios, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The speedup is a CPU-time ratio: meaningless under the race
		// detector, whose instrumentation reshapes the per-step cost
		// profile of the two engine families differently (observed ~1.6x
		// under -race vs ~4x without on the same machine).
		if !testenv.Race() && row.Speedup < 2 {
			t.Errorf("%s: proposed should clearly beat existing, speedup %.2f", row.Scenario, row.Speedup)
		}
		if row.VcRMSE > 0.05 {
			t.Errorf("%s: engines disagree: RMSE %.3g V", row.Scenario, row.VcRMSE)
		}
	}
	if !strings.Contains(res.String(), "Table II") {
		t.Fatalf("render incomplete")
	}

	// The same claim as an interleaved min-of-N ratio over the first 12 s
	// of each scenario (the frequency shift lands at 10 s).
	if testenv.Race() {
		t.Skip("CPU-time ratio is meaningless under the race detector")
	}
	for _, sc := range []harvester.Scenario{harvester.Scenario1(harvester.Quick), harvester.Scenario2(harvester.Quick)} {
		sc.Duration = 12
		if r := engineRatio(t, 5, sc, harvester.ExistingTrap, harvester.Proposed); r < table2RatioFloor {
			t.Errorf("%s: trapezoidal/proposed CPU ratio %.2f, want >= %.2f", sc.Name, r, table2RatioFloor)
		}
	}
}

// table2RatioFloor is TestTable2ShapeHolds's floor on the
// trapezoidal/proposed CPU ratio of each scenario's first 12 s.
const table2RatioFloor = 2.0

// TestDuffingNoiseRatio holds the proposed engine's advantage on the
// nonlinear, stochastic workload: a strong Duffing spring under
// band-limited noise, where every refresh re-tangents the spring.
func TestDuffingNoiseRatio(t *testing.T) {
	if testing.Short() || testenv.Race() {
		t.Skip("CPU-time ratio: needs a full, non-race build")
	}
	sc := harvester.NoiseScenario(0.5, 55, 85, 42)
	sc.Cfg.VibNoise.RMS = 2
	sc.Cfg.Microgen.K3 = harvester.DuffingK3Strong
	if r := engineRatio(t, 11, sc, harvester.ExistingTrap, harvester.Proposed); r < duffingRatioFloor {
		t.Errorf("trapezoidal/proposed CPU ratio %.2f, want >= %.2f", r, duffingRatioFloor)
	}
}

// duffingRatioFloor is TestDuffingNoiseRatio's floor.
const duffingRatioFloor = 1.8

func TestFig8aPowerLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	res, err := Fig8a(harvester.Quick)
	if err != nil {
		t.Fatalf("Fig8a: %v", err)
	}
	// Calibration band around the paper's 116-118 uW.
	if res.RMSBefore < 70e-6 || res.RMSBefore > 190e-6 {
		t.Errorf("tuned-at-70 RMS = %v W, want ~118 uW", res.RMSBefore)
	}
	if res.RMSAfter < 70e-6 || res.RMSAfter > 190e-6 {
		t.Errorf("retuned-at-71 RMS = %v W, want ~117 uW", res.RMSAfter)
	}
	// The dip while detuned is the figure's visual signature.
	if res.RMSDetuned > 0.8*res.RMSBefore {
		t.Errorf("no visible dip: detuned %v vs tuned %v", res.RMSDetuned, res.RMSBefore)
	}
	// Before/after parity (paper: 118 vs 117 uW).
	ratio := res.RMSAfter / res.RMSBefore
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("before/after asymmetry too large: %v", ratio)
	}
	if !strings.Contains(res.String(), "Fig 8(a)") {
		t.Fatalf("render incomplete")
	}
}

func TestFig8bCloseCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario + twin runs")
	}
	res, err := Fig8b(harvester.Quick)
	if err != nil {
		t.Fatalf("Fig8b: %v", err)
	}
	// Close correlation, but not identical (the twin carries parasitics).
	if res.Comparison.RMSE > 0.08 {
		t.Errorf("correlation too loose: RMSE %v V", res.Comparison.RMSE)
	}
	if res.Comparison.RMSE == 0 {
		t.Errorf("twin identical to simulation; parasitics missing")
	}
}

func TestMeasurementTwinDiffersPhysically(t *testing.T) {
	if testing.Short() {
		t.Skip("twin run")
	}
	sc := harvester.ChargeScenario(5)
	sc.Cfg.InitialVc = 2.5
	_, h, err := runTimed("base", sc, harvester.Proposed, 16)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	twin, err := MeasurementTwin(sc, 16)
	if err != nil {
		t.Fatalf("twin: %v", err)
	}
	// The twin must sit slightly below the ideal simulation (leakage and
	// higher losses) — at least by the end of the horizon.
	_, vSim := h.VcTrace.Last()
	_, vTwin := twin.Last()
	if vTwin >= vSim {
		t.Errorf("twin should lose energy to parasitics: twin %v vs sim %v", vTwin, vSim)
	}
}

func TestEngineRunHelpers(t *testing.T) {
	a := EngineRun{Label: "a", CPUTime: 10 * time.Second, SimTime: 100}
	b := EngineRun{Label: "b", CPUTime: 1 * time.Second, SimTime: 10}
	// Same per-sim-second cost: speedup 1.
	if sp := a.Speedup(b); math.Abs(sp-1) > 1e-9 {
		t.Fatalf("Speedup = %v, want 1", sp)
	}
	c := EngineRun{Label: "c", CPUTime: 1 * time.Second, SimTime: 100}
	if sp := c.Speedup(a); math.Abs(sp-10) > 1e-9 {
		t.Fatalf("Speedup = %v, want 10", sp)
	}
	if got := a.ExtrapolateTo(1000); got != 100*time.Second {
		t.Fatalf("ExtrapolateTo = %v", got)
	}
	if FormatDuration(90*time.Minute) != "1.5h" {
		t.Fatalf("FormatDuration hour form wrong")
	}
	if FormatDuration(90*time.Second) != "1.5min" {
		t.Fatalf("FormatDuration minute form wrong")
	}
	if FormatDuration(1500*time.Millisecond) != "1.5s" {
		t.Fatalf("FormatDuration second form wrong: %s", FormatDuration(1500*time.Millisecond))
	}
}

func TestAblationStabilityDemonstratesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("stability sweep")
	}
	res, err := AblationStability(2)
	if err != nil {
		t.Fatalf("AblationStability: %v", err)
	}
	byFactor := map[string]bool{}
	for _, row := range res.Rows {
		byFactor[row.Setting] = row.Failed
	}
	if byFactor["0.9x stability cap"] {
		t.Errorf("run inside the bound should be stable")
	}
	if !byFactor["4x stability cap"] {
		t.Errorf("run far past the bound should diverge")
	}
}

func TestAblationPWLSpeedFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("granularity sweep")
	}
	res, err := AblationPWL(2)
	if err != nil {
		t.Fatalf("AblationPWL: %v", err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("too few rows")
	}
	// Paper claim: table size does not affect simulation speed. The
	// lookup is O(1); the residual coupling in this implementation is the
	// refresh frequency (finer tables change segment more often), which
	// stays within a small constant band across a 1000x granularity
	// range — far from the linear growth a non-tabular model would show.
	minCPU, maxCPU := math.Inf(1), 0.0
	for _, row := range res.Rows {
		s := row.CPUTime.Seconds()
		minCPU = math.Min(minCPU, s)
		maxCPU = math.Max(maxCPU, s)
	}
	if maxCPU > 6*minCPU {
		t.Errorf("CPU not flat across granularity: %v .. %v s", minCPU, maxCPU)
	}
}

// TestAblationNotesFollowRows feeds each note synthetic rows for both
// outcomes of its claim: the sentence must follow the numbers.
func TestAblationNotesFollowRows(t *testing.T) {
	row := func(setting string, cpuMs int, rmse float64, failed bool) AblationRow {
		return AblationRow{Setting: setting, CPUTime: time.Duration(cpuMs) * time.Millisecond, Err: rmse, Failed: failed}
	}
	cases := []struct {
		name string
		note string
		want []string
	}{
		{"flat, error falls", sweepNote([]AblationRow{row("a", 100, 1e-3, false), row("b", 110, 1e-5, false)}),
			[]string{"CPU is flat (within 1.10x", "Vc RMSE falls from 0.001 V (a) to 1e-05 V (b)"}},
		{"not flat, error rises", sweepNote([]AblationRow{row("a", 300, 1e-5, false), row("b", 100, 2e-5, false)}),
			[]string{"CPU is not flat: a takes 3.0x the CPU of b", "Vc RMSE does not fall"}},
		{"some diverged", stabilityNote([]AblationRow{row("1x", 10, 0, false), row("2x", 10, 0, false), row("4x", 10, 0, true)}),
			[]string{"stable: 1x, 2x;", "diverged: 4x."}},
		{"none diverged", stabilityNote([]AblationRow{row("1x", 10, 0, false), row("4x", 10, 0, false)}),
			[]string{"stable: 1x, 4x;", "diverged: none."}},
		{"all diverged", stabilityNote([]AblationRow{row("4x", 10, 0, true)}),
			[]string{"stable: none;", "diverged: 4x."}},
	}
	for _, c := range cases {
		for _, w := range c.want {
			if !strings.Contains(c.note, w) {
				t.Errorf("%s: note %q lacks %q", c.name, c.note, w)
			}
		}
	}
}
