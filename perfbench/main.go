// Command perfbench is harvsim's benchmark: one workload per run,
// measured end to end (tracing off) or layer by layer (tracing on), with
// every output checked against a serial, cache-less reference run.
//
//	bash perfbench/run.sh --workload grid_cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md): grid_cold, ensemble_wideband and
// refine_fleet. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// machine context of the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"points_per_s", "1/s"},
	{"sweep_s_p50", "s"},
	{"sweep_s_p90", "s"},
	{"first_result_s_p50", "s"},
	{"cpu_s_per_point", "s"},
	{"alloc_bytes_per_point", "B"},
	{"ok_frac", "frac"},
	{"setup_s", "s"},
}

func main() {
	name := flag.String("workload", "", "grid_cold | ensemble_wideband | refine_fleet")
	seed := flag.Uint64("seed", 1, "workload seed: generates the design points and noise seeds")
	secs := flag.Float64("seconds", 10, "measurement window [s]")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*secs*float64(time.Second))+150*time.Second)
	defer cancel()
	w, err := newWorkload(*name, *seed, fullSize, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	info := map[string]any{"workload": *name, "seed": *seed}
	rep, err := run(ctx, w, *secs, *trace == 1, fullSize.SetupReps, info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctxLine, _ := json.Marshal(map[string]any{"context": machineContext(), "run": info})
	fmt.Println(string(ctxLine))
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up reps times (once when traced), drives its
// clients in a closed loop for secs, checks every output and derives
// the metrics. It adds the run's sample counts to info.
func run(ctx context.Context, w workload, secs float64, traced bool, reps int, info map[string]any) (report, error) {
	defer w.close()
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	runtime.GC()
	cpu0 := cpuTime()
	alloc0, _ := heapAlloc()
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	perClient := make([][]sweepRec, w.clients())
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				// Traced runs alternate untraced and traced sweeps, so
				// both halves see the same mix of inputs.
				perClient[c] = append(perClient[c], w.sweep(ctx, c, n, traced && n%2 == 1))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	alloc1, _ := heapAlloc()
	if err := ctx.Err(); err != nil {
		return report{}, err
	}

	var recs []sweepRec
	for _, rs := range perClient {
		recs = append(recs, rs...)
	}
	problems := w.finish()
	var walls, firsts []float64
	rep := report{Metrics: make(map[string]metric)}
	for _, r := range recs {
		problems = append(problems, r.problems...)
		rep.Attempted += r.points
		rep.Failed += r.failed
		walls = append(walls, r.wall.Seconds())
		firsts = append(firsts, r.first.Seconds())
	}
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... and %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "incorrect:", p)
	}
	rep.Correct = len(problems) == 0 && rep.Attempted > 0
	info["sweeps"], info["elapsed_s"], info["setup_s"] = len(recs), elapsed.Seconds(), setups

	if traced {
		layers, err := w.layers(ctx, recs)
		if err != nil {
			return report{}, fmt.Errorf("layers: %w", err)
		}
		for _, m := range layerTable {
			rep.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		return rep, nil
	}
	points := float64(rep.Attempted)
	values := map[string]float64{
		"points_per_s":          points / elapsed.Seconds(),
		"sweep_s_p50":           median(walls),
		"sweep_s_p90":           quantile(walls, 0.9),
		"first_result_s_p50":    median(firsts),
		"cpu_s_per_point":       cpu.Seconds() / points,
		"alloc_bytes_per_point": float64(alloc1-alloc0) / points,
		"ok_frac":               1 - float64(rep.Failed)/points,
		"setup_s":               median(setups),
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return rep, nil
}
