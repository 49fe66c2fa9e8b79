package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"harvsim/internal/batch"
)

var workloadNames = []string{"grid_cold", "ensemble_wideband", "refine_fleet"}

// benchmarkFile is the part of BENCHMARK.json the tests cross-check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func runTiny(t *testing.T, w workload, traced bool) report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := run(ctx, w, 0.3, traced, tinySize.SetupReps, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny size,
// untraced and traced, and requires a correct run that reports exactly
// the metrics BENCHMARK.json declares, with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if bf.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, bf.Workloads[i].Name, name)
		}
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, 7, tinySize, traced)
			if err != nil {
				t.Fatal(err)
			}
			rep := runTiny(t, w, traced)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && rep.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v with no failures", name, rep.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestLayerTableMatchesBenchmarkFile keeps the metric lists in one
// agreement: the program's tables and BENCHMARK.json.
func TestLayerTableMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.PerLayer) != len(layerTable) || len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the program %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(layerTable))
	}
	for i, m := range layerTable {
		if g := bf.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, g, m)
		}
	}
	for i, m := range endToEnd {
		if g := bf.EndToEnd[i]; g.Name != m.name || g.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, g, m)
		}
	}
}

func flip(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }

// TestFlippedBitFailsCheck corrupts one bit of one expected result and
// requires the sweep that produces it to be reported incorrect, in
// process and over the fleet.
func TestFlippedBitFailsCheck(t *testing.T) {
	ctx := context.Background()
	w := &inproc{name: "grid_cold", seed: 3, sz: tinySize}
	if err := w.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := w.sweep(ctx, 0, 0, false); len(rec.problems) != 0 {
		t.Fatalf("clean sweep reported %v", rec.problems)
	}
	flip(&w.ref[0][1].Energy.Load)
	if rec := w.sweep(ctx, 0, 0, false); len(rec.problems) != 1 {
		t.Fatalf("flipped energy bit: %d problems, want 1", len(rec.problems))
	}

	r := &refine{seed: 3, sz: tinySize}
	defer r.close()
	if err := r.setup(ctx); err != nil {
		t.Fatal(err)
	}
	for p, ref := range r.baseRef {
		flip(&ref.RMSPower)
		r.baseRef[p] = ref
	}
	if rec := r.sweep(ctx, 0, 0, false); rec.failed != 0 || len(rec.problems) == 0 {
		t.Fatalf("flipped reference bits over the fleet: failed %d, problems %v", rec.failed, rec.problems)
	}

	points := batch.Ensembles(w.ref[0])
	bad := append([]batch.EnsemblePoint(nil), points...)
	flip(&bad[0].Mean)
	if diffEnsembles(points, points) != "" || diffEnsembles(bad, points) == "" {
		t.Fatal("ensemble reduction check does not see a flipped bit")
	}
}

// failing is grid_cold with one job made invalid after its reference
// was taken: the program must fail that job, and the run count it.
type failing struct{ *inproc }

func (f failing) setup(ctx context.Context) error {
	if err := f.inproc.setup(ctx); err != nil {
		return err
	}
	f.jobs[0][0].Scenario.Cfg.VibAmplitude = math.NaN()
	return nil
}

func TestFailedJobLowersOKFrac(t *testing.T) {
	rep := runTiny(t, failing{&inproc{name: "grid_cold", seed: 5, sz: tinySize}}, false)
	if rep.Failed == 0 || rep.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("failed %d, ok_frac %v: the invalid job was not counted", rep.Failed, rep.Metrics["ok_frac"].Value)
	}
	if !rep.Correct {
		t.Fatal("a failed job is a failure, not an incorrect output")
	}
}

func TestScrape(t *testing.T) {
	text := "# TYPE a_total counter\na_total 3\na_total_x 9\nh_sum{worker=\"w\"} 1.5\nh_sum{worker=\"v\"} 2\n"
	if got := scrape(text, "a_total"); got != 3 {
		t.Errorf("a_total = %v, want 3", got)
	}
	if got := scrape(text, "h_sum"); got != 3.5 {
		t.Errorf("h_sum = %v, want 3.5", got)
	}
	if got := scrape(text, "missing"); got != 0 {
		t.Errorf("missing = %v, want 0", got)
	}
}
