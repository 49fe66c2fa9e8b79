package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
	"harvsim/internal/metrics"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// nsim is the number of simulation goroutines every workload uses: the
// batch pool width in-process, and the fleet's two single-worker
// servers.
const nsim = 2

// size scales the workloads. The benchmark runs at fullSize; its tests
// run every workload end to end at tinySize.
type size struct {
	GridSpecs, GridRC, GridStages int     // grid_cold: distinct grids, points per axis
	GridDur                       float64 // grid_cold: simulated horizon [s]

	EnsSpecs, EnsPoints, EnsSeeds int     // ensemble_wideband: distinct sweeps, design points, seeds each
	EnsTones                      int     // ensemble_wideband: spectral tones
	EnsDur                        float64 // ensemble_wideband: simulated horizon [s]

	BaseRC, BaseStages     int     // refine_fleet: primed base grid
	RefineRC, RefineStages int     // refine_fleet: points per axis of one refinement sweep
	RefineDur              float64 // refine_fleet: simulated horizon [s]

	SetupReps int // set-ups per run; setup_s is their median
}

var fullSize = size{
	GridSpecs: 4, GridRC: 3, GridStages: 8, GridDur: 0.25,
	EnsSpecs: 2, EnsPoints: 2, EnsSeeds: 8, EnsTones: 4096, EnsDur: 0.1,
	BaseRC: 8, BaseStages: 4, RefineRC: 8, RefineStages: 2, RefineDur: 0.1,
	SetupReps: 5,
}

var tinySize = size{
	GridSpecs: 2, GridRC: 2, GridStages: 2, GridDur: 0.05,
	EnsSpecs: 1, EnsPoints: 2, EnsSeeds: 2, EnsTones: 64, EnsDur: 0.02,
	BaseRC: 3, BaseStages: 2, RefineRC: 3, RefineStages: 2, RefineDur: 0.02,
	SetupReps: 1,
}

// workload is one benchmark scenario. setup builds everything a run
// needs (inputs, references, servers, primed caches), replacing any
// previous set-up; sweep resolves one sweep for one closed-loop client;
// finish runs the checks that need the whole window's output; layers
// derives the per-layer metrics of a traced run.
type workload interface {
	setup(ctx context.Context) error
	close()
	clients() int
	sweep(ctx context.Context, client, n int, traced bool) sweepRec
	finish() []string
	layers(ctx context.Context, recs []sweepRec) (map[string]float64, error)
}

// sweepRec is one sweep as the benchmark observed it.
type sweepRec struct {
	wall, first time.Duration
	points      int
	failed      int
	problems    []string // correctness violations found in this sweep
	traced      bool

	// Traced sweeps only: the sweep's spans and its per-job outcomes.
	spans []tracing.Span
	jobs  []jobObs
}

// jobObs is one resolved job of a traced sweep. stats is nil when the
// job came over the wire, which carries only the step count.
type jobObs struct {
	cached, shared bool
	steps          int
	stats          *batch.EngineStats
}

func newWorkload(name string, seed uint64, sz size, traced bool) (workload, error) {
	switch name {
	case "grid_cold":
		return &inproc{name: name, seed: seed, sz: sz}, nil
	case "ensemble_wideband":
		return &inproc{name: name, seed: seed, sz: sz, ensemble: true}, nil
	case "refine_fleet":
		return &refine{seed: seed, sz: sz, timeAccepts: traced}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want grid_cold|ensemble_wideband|refine_fleet)", name)
}

// chargeSpec is the Table I charge scenario from the partially charged
// working point, swept over coil resistance x multiplier stages.
func chargeSpec(name string, dur float64, rcs []float64, stages []int) wire.Spec {
	return wire.Spec{
		V:        wire.Version,
		Name:     name,
		Scenario: wire.Scenario{Kind: "charge", DurationS: dur, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: rcs},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: stages},
		},
	}
}

// logStrata draws n values, one uniformly (in log space) from each of n
// equal log-width strata of [lo, hi]: seeds move the points, not the
// cost profile of the grid.
func logStrata(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	w := (math.Log(hi) - math.Log(lo)) / float64(n)
	for k := range out {
		out[k] = math.Exp(math.Log(lo) + (float64(k)+rng.Float64())*w)
	}
	return out
}

// spreadStages returns n stage counts spread evenly over the 3..10
// range the multiplier supports. The stage count sets a point's cost
// (the state dimension), so grids use a fixed set and seeds move only
// the coil resistances.
func spreadStages(n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = 3 + 8*k/n
	}
	return out
}

// gridSpecs generates grid_cold's distinct cold grids from the seed.
func gridSpecs(seed uint64, sz size) []wire.Spec {
	rng := rand.New(rand.NewPCG(seed, 1))
	stages := spreadStages(sz.GridStages)
	specs := make([]wire.Spec, sz.GridSpecs)
	for i := range specs {
		specs[i] = chargeSpec("grid", sz.GridDur, logStrata(rng, sz.GridRC, 100, 5600), stages)
	}
	return specs
}

// ensembleSpecs generates ensemble_wideband's distinct sweeps from the
// seed: a few bistable design points (coil resistance) x K noise seeds,
// under the dense-spectrum (EnsTones) wideband excitation. Each sweep
// draws its own noise seeds.
func ensembleSpecs(seed uint64, sz size) []wire.Spec {
	rng := rand.New(rand.NewPCG(seed, 2))
	specs := make([]wire.Spec, sz.EnsSpecs)
	for i := range specs {
		specs[i] = ensembleSpec(rng, sz)
	}
	return specs
}

func ensembleSpec(rng *rand.Rand, sz size) wire.Spec {
	return wire.Spec{
		V:    wire.Version,
		Name: "ens",
		Scenario: wire.Scenario{
			Kind: "bistable", DurationS: sz.EnsDur,
			WellM: harvester.BistableWellM, BarrierJ: harvester.BistableBarrierJ,
			Xi1: 120, Xi2: -3.4e4, NoiseFLoHz: 8, NoiseFHiHz: 40,
			Set: map[string]float64{"noise.tones": float64(sz.EnsTones)},
		},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: logStrata(rng, sz.EnsPoints, 300, 3000)},
			{Kind: wire.AxisSeed, BaseSeed: wire.Seed(rng.Uint64()), Count: sz.EnsSeeds},
		},
	}
}

// compile expands a wire spec the way a server does.
func compile(spec wire.Spec) ([]batch.Job, error) {
	bs, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return bs.Jobs()
}

// reference computes the serial, cache-less reference of jobs: the
// determinism contract's ground truth. Two halves run on the two
// simulation goroutines; each is an independent RunSerial, and a job's
// result does not depend on its neighbours.
func reference(jobs []batch.Job) []batch.Result {
	half := (len(jobs) + 1) / 2
	var lo, hi []batch.Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hi = batch.RunSerial(jobs[half:], batch.Options{})
	}()
	lo = batch.RunSerial(jobs[:half], batch.Options{})
	wg.Wait()
	out := append(lo, hi...)
	for i := range out {
		out[i].Index = i
	}
	return out
}

// inproc is a workload run through batch.Run in this process:
// grid_cold (fresh cache per sweep, so every point simulates and the
// cache only writes) or ensemble_wideband (seed groups reduced with
// batch.Ensembles).
type inproc struct {
	name     string
	seed     uint64
	sz       size
	ensemble bool

	specs  []wire.Spec
	jobs   [][]batch.Job
	ref    [][]batch.Result
	refEns [][]batch.EnsemblePoint

	// Traced sweeps share one batch instrument bundle, read back through
	// its registry (the same text /metrics serves).
	reg *metrics.Registry
	bm  *batch.Metrics
}

func (w *inproc) clients() int { return 1 }
func (w *inproc) close()       {}

func (w *inproc) setup(ctx context.Context) error {
	if w.ensemble {
		w.specs = ensembleSpecs(w.seed, w.sz)
	} else {
		w.specs = gridSpecs(w.seed, w.sz)
	}
	w.jobs, w.ref, w.refEns = nil, nil, nil
	for _, spec := range w.specs {
		jobs, err := compile(spec)
		if err != nil {
			return err
		}
		ref := reference(jobs)
		for _, r := range ref {
			if r.Err != nil {
				return fmt.Errorf("%s: reference job %s failed: %v", w.name, r.Name, r.Err)
			}
		}
		w.jobs = append(w.jobs, jobs)
		w.ref = append(w.ref, ref)
		if w.ensemble {
			w.refEns = append(w.refEns, batch.Ensembles(ref))
		}
	}
	if !w.ensemble {
		if err := conformance(w.jobs[0]); err != nil {
			return err
		}
	}
	w.reg = metrics.NewRegistry()
	w.bm = batch.NewMetrics(w.reg)
	return nil
}

func (w *inproc) sweep(ctx context.Context, client, n int, traced bool) sweepRec {
	k := (n / 2) % len(w.jobs) // each input twice in a row: untraced, then traced
	jobs := w.jobs[k]
	opt := batch.Options{Workers: nsim}
	if !w.ensemble {
		opt.Cache = batch.NewCache(0)
	}
	var rec *tracing.Recorder
	if traced {
		rec = tracing.New("", 0)
		opt.Trace = rec
		opt.Metrics = w.bm
	}
	var first atomic.Int64
	start := time.Now()
	opt.OnResult = func(batch.Result) {
		first.CompareAndSwap(0, int64(time.Since(start)))
	}
	results := batch.Run(ctx, jobs, opt)
	var points []batch.EnsemblePoint
	if w.ensemble {
		points = batch.Ensembles(results)
	}
	out := sweepRec{wall: time.Since(start), first: time.Duration(first.Load()), points: len(jobs), traced: traced}

	for i, r := range results {
		if r.Err != nil {
			out.failed++
			continue
		}
		if d := diffResult(r, w.ref[k][i]); d != "" {
			out.problems = append(out.problems, fmt.Sprintf("%s sweep %d job %s: %s", w.name, n, r.Name, d))
		}
	}
	if w.ensemble && out.failed == 0 {
		if d := diffEnsembles(points, w.refEns[k]); d != "" {
			out.problems = append(out.problems, fmt.Sprintf("%s sweep %d: %s", w.name, n, d))
		}
	}
	if traced {
		out.spans, _ = rec.Snapshot(0)
		for _, r := range results {
			st := r.Stats
			out.jobs = append(out.jobs, jobObs{cached: r.Cached, shared: r.Shared, steps: st.Steps, stats: &st})
		}
	}
	return out
}

func (w *inproc) finish() []string { return nil }
