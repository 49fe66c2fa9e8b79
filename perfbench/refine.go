package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"sync"

	"harvsim/internal/batch"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// point is one design point of the charge grid: coil resistance (by
// bits) x multiplier stages.
type point struct {
	rc     uint64
	stages int
}

// freshLine is a streamed result for a point no earlier sweep asked
// for; it is checked against a reference after the window.
type freshLine struct {
	p     point
	line  wire.Result
	stats *batch.EngineStats // filled by finish; shared with the sweep's jobObs
}

// refine is refine_fleet: nsim closed-loop clients each submit a small
// refinement sweep to the coordinator, wait for its summary, and submit
// the next. Each sweep revisits base-grid points (primed in the workers'
// caches) plus one coil resistance no sweep used before.
type refine struct {
	seed        uint64
	sz          size
	timeAccepts bool

	f          *fleet
	base       wire.Spec
	baseRC     []float64
	baseStages []int
	baseJobs   []batch.Job
	baseRef    map[point]batch.Result
	rngs       []*rand.Rand

	mu     sync.Mutex
	usedRC map[float64]bool
	fresh  []freshLine
}

func (w *refine) clients() int { return nsim }

func (w *refine) close() {
	w.f.close()
	w.f = nil
}

func (w *refine) setup(ctx context.Context) error {
	w.close()
	rng := rand.New(rand.NewPCG(w.seed, 3))
	w.baseRC = logStrata(rng, w.sz.BaseRC, 100, 5600)
	w.baseStages = spreadStages(w.sz.BaseStages)
	w.base = chargeSpec("refine", w.sz.RefineDur, w.baseRC, w.baseStages)
	jobs, err := compile(w.base)
	if err != nil {
		return err
	}
	w.baseJobs = jobs
	ref := reference(jobs)
	w.baseRef = make(map[point]batch.Result, len(ref))
	for i, r := range ref {
		if r.Err != nil {
			return fmt.Errorf("refine_fleet: reference job %s failed: %v", r.Name, r.Err)
		}
		w.baseRef[w.pointAt(w.baseRC, w.baseStages, i)] = r
	}
	w.usedRC = make(map[float64]bool)
	for _, v := range w.baseRC {
		w.usedRC[v] = true
	}
	w.fresh = nil
	w.rngs = make([]*rand.Rand, nsim)
	for c := range w.rngs {
		w.rngs[c] = rand.New(rand.NewPCG(w.seed, 10+uint64(c)))
	}

	if w.f, err = startFleet(w.timeAccepts); err != nil {
		return err
	}
	// Prime: the base grid through the coordinator lands every point in
	// the cache of the worker that owns its key.
	st, err := w.f.sweep(ctx, w.f.coordURL, wire.SweepRequest{Spec: w.base})
	if err != nil {
		return fmt.Errorf("refine_fleet: priming: %w", err)
	}
	if len(st.lines) != len(jobs) || st.sum.Failed != 0 {
		return fmt.Errorf("refine_fleet: priming streamed %d/%d results, %d failed", len(st.lines), len(jobs), st.sum.Failed)
	}
	for _, ln := range st.lines {
		if d := diffWire(ln, ref[ln.Index]); d != "" {
			return fmt.Errorf("refine_fleet: priming %s: %s", ln.Name, d)
		}
	}
	return nil
}

func (w *refine) pointAt(rcs []float64, stages []int, index int) point {
	return point{math.Float64bits(rcs[index/len(stages)]), stages[index%len(stages)]}
}

// next generates client c's next refinement sweep: RefineRC-1 base
// resistances plus one unused one near a base value, x RefineStages
// base stage counts.
func (w *refine) next(c int) ([]float64, []int) {
	rng := w.rngs[c]
	perm := rng.Perm(len(w.baseRC))
	rcs := make([]float64, 0, w.sz.RefineRC)
	for _, i := range perm[:w.sz.RefineRC-1] {
		rcs = append(rcs, w.baseRC[i])
	}
	w.mu.Lock()
	var v float64
	for v == 0 || w.usedRC[v] {
		v = w.baseRC[rng.IntN(len(w.baseRC))] * math.Exp(0.4*(rng.Float64()-0.5))
	}
	w.usedRC[v] = true
	w.mu.Unlock()
	rcs = append(rcs, v)
	sort.Float64s(rcs)
	stages := make([]int, 0, w.sz.RefineStages)
	for _, i := range rng.Perm(len(w.baseStages))[:w.sz.RefineStages] {
		stages = append(stages, w.baseStages[i])
	}
	sort.Ints(stages)
	return rcs, stages
}

func (w *refine) sweep(ctx context.Context, client, n int, traced bool) sweepRec {
	rcs, stages := w.next(client)
	req := wire.SweepRequest{Spec: chargeSpec("refine", w.sz.RefineDur, rcs, stages)}
	if traced {
		req.Trace = tracing.NewTraceID()
	}
	total := len(rcs) * len(stages)
	st, err := w.f.sweep(ctx, w.f.coordURL, req)
	out := sweepRec{wall: st.wall, first: st.first, points: total, traced: traced, spans: st.spans}
	if err != nil {
		fmt.Fprintf(os.Stderr, "refine_fleet: client %d sweep %d: %v\n", client, n, err)
		out.failed = total
		return out
	}
	problem := func(format string, args ...any) {
		out.problems = append(out.problems, fmt.Sprintf("refine_fleet client %d sweep %d: ", client, n)+fmt.Sprintf(format, args...))
	}
	seen := make([]int, total)
	hits, wantHits := 0, (len(rcs)-1)*len(stages)
	var fresh []freshLine
	for _, ln := range st.lines {
		if ln.Index < 0 || ln.Index >= total {
			out.failed++
			continue
		}
		if seen[ln.Index]++; seen[ln.Index] > 1 || ln.Error != "" {
			out.failed++ // a duplicate index or a job error
			continue
		}
		p := w.pointAt(rcs, stages, ln.Index)
		obs := jobObs{cached: ln.Cached, shared: ln.Shared, steps: ln.Steps}
		if ref, ok := w.baseRef[p]; ok {
			if ln.Cached {
				hits++
			}
			if d := diffWire(ln, ref); d != "" {
				problem("%s: %s", ln.Name, d)
			}
		} else {
			if ln.Cached {
				problem("%s: a new point was served from the cache", ln.Name)
			}
			obs.stats = &batch.EngineStats{}
			fresh = append(fresh, freshLine{p: p, line: ln, stats: obs.stats})
		}
		if traced {
			out.jobs = append(out.jobs, obs)
		}
	}
	for _, k := range seen {
		if k == 0 {
			out.failed++ // never streamed
		}
	}
	out.failed += st.sum.Resharded
	if out.failed == 0 && (hits != wantHits || st.sum.CacheHits != wantHits) {
		problem("%d cache hits streamed, %d summarised, want %d", hits, st.sum.CacheHits, wantHits)
	}
	w.mu.Lock()
	w.fresh = append(w.fresh, fresh...)
	w.mu.Unlock()
	return out
}

// finish checks every new point's streamed result against a serial,
// cache-less reference run of the same design point.
func (w *refine) finish() []string {
	var jobs []batch.Job
	var pts []point
	refs := make(map[point]batch.Result)
	for _, fl := range w.fresh {
		if _, ok := refs[fl.p]; ok {
			continue
		}
		refs[fl.p] = batch.Result{}
		js, err := compile(chargeSpec("refine", w.sz.RefineDur, []float64{math.Float64frombits(fl.p.rc)}, []int{fl.p.stages}))
		if err != nil {
			return []string{err.Error()}
		}
		jobs = append(jobs, js[0])
		pts = append(pts, fl.p)
	}
	for i, r := range reference(jobs) {
		refs[pts[i]] = r
	}
	var problems []string
	for _, fl := range w.fresh {
		ref := refs[fl.p]
		if ref.Err != nil {
			problems = append(problems, fmt.Sprintf("refine_fleet: reference %s failed: %v", fl.line.Name, ref.Err))
			continue
		}
		if d := diffWire(fl.line, ref); d != "" {
			problems = append(problems, fmt.Sprintf("refine_fleet: %s: %s", fl.line.Name, d))
		}
		*fl.stats = ref.Stats
	}
	return problems
}
