package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/metrics"
	"harvsim/internal/shard"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// layerMetric is one per-layer metric of a traced run and the
// end-to-end metric and workload it is predicted to move.
type layerMetric struct {
	name, unit, better, moves string
}

// layerTable lists every per-layer metric a traced run emits.
var layerTable = []layerMetric{
	{"core.step_ns", "ns", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"core.steps", "count", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"core.rejected_frac", "frac", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"core.refactors_per_step", "count", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"core.stability_recomputes", "count", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"core.refactor_frac", "frac", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"core.stability_frac", "frac", "lower", "points_per_s, cpu_s_per_point: grid_cold most, ensemble_wideband partly, refine_fleet none"},
	{"implicit.step_ns", "ns", "lower", "no end-to-end metric: a move alone marks a change to the baseline"},
	{"core.speedup_vs_implicit", "x", "higher", "no end-to-end metric: the paper's claim, first ladder rung"},
	{"harvester.assemble_us", "us", "lower", "points_per_s on grid_cold"},
	{"harvester.march_frac", "frac", "higher", "points_per_s on grid_cold"},
	{"blocks.accel_ns", "ns", "lower", "points_per_s on ensemble_wideband; no move on grid_cold"},
	{"batch.lockstep_units", "count", "higher", "points_per_s, sweep_s_p50 on ensemble_wideband"},
	{"batch.lockstep_members", "count", "higher", "points_per_s, sweep_s_p50 on ensemble_wideband"},
	{"batch.worker_busy_frac", "frac", "higher", "points_per_s, sweep_s_p50 on ensemble_wideband"},
	{"batch.ensembles_us", "us", "lower", "points_per_s, sweep_s_p50 on ensemble_wideband"},
	{"batch.keyof_us", "us", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet; negligible on grid_cold"},
	{"batch.keyof_allocs", "count", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet; negligible on grid_cold"},
	{"batch.cache_get_ns", "ns", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet; negligible on grid_cold"},
	{"batch.hit_frac", "frac", "higher", "sweep_s_p50, sweep_s_p90 on refine_fleet; negligible on grid_cold"},
	{"batch.shared", "count", "higher", "sweep_s_p50, sweep_s_p90 on refine_fleet; negligible on grid_cold"},
	{"batch.probe_frac", "frac", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet; negligible on grid_cold"},
	{"wire.compile_us", "us", "lower", "sweep_s_p50, first_result_s_p50 on refine_fleet"},
	{"wire.result_encode_ns", "ns", "lower", "sweep_s_p50, first_result_s_p50 on refine_fleet"},
	{"wire.result_decode_ns", "ns", "lower", "sweep_s_p50, first_result_s_p50 on refine_fleet"},
	{"wire.bytes_per_result", "B", "lower", "sweep_s_p50, first_result_s_p50 on refine_fleet"},
	{"server.accept_ms_p50", "ms", "lower", "sweep_s_p50, first_result_s_p50 on refine_fleet"},
	{"server.queue_s_mean", "s", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet"},
	{"server.exec_s_p50", "s", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet"},
	{"server.transport_s", "s", "lower", "sweep_s_p50, first_result_s_p50 on refine_fleet"},
	{"shard.keys_us", "us", "lower", "sweep_s_p50 on refine_fleet"},
	{"shard.assign_us", "us", "lower", "sweep_s_p50 on refine_fleet"},
	{"shard.shard_s_p50", "s", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet"},
	{"shard.overhead_s", "s", "lower", "sweep_s_p50, sweep_s_p90 on refine_fleet"},
	{"shard.resharded", "count", "lower", "ok_frac on refine_fleet (must be 0)"},
	{"shard.lost_workers", "count", "lower", "ok_frac on refine_fleet (must be 0)"},
	{"tracing.overhead_frac", "frac", "lower", "every end-to-end metric of a traced run, per workload"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLayers derives the per-layer metrics a workload's traced sweeps
// carry in their spans and job outcomes. conc is the number of sweeps
// in flight at once (the clients), so nsim/conc simulation goroutines
// serve one sweep.
func spanLayers(recs []sweepRec, conc int) map[string]float64 {
	var march, factor, stab, probe, tracedWall time.Duration
	var jobs, cached, shared, fresh, steps, nTraced int
	var statJobs, statSteps, rejected, refactors, stabRecomp int
	var wallOn, wallOff []float64
	for _, rec := range recs {
		if !rec.traced {
			wallOff = append(wallOff, rec.wall.Seconds())
			continue
		}
		nTraced++
		tracedWall += rec.wall
		wallOn = append(wallOn, rec.wall.Seconds())
		// Lockstep members each carry the unit's shared march span:
		// count one march per distinct interval.
		marches := make(map[[2]int64]bool)
		for _, s := range rec.spans {
			switch s.Name {
			case batch.PhaseMarch:
				k := [2]int64{s.Start.UnixNano(), int64(s.Dur)}
				if !marches[k] {
					marches[k] = true
					march += s.Dur
				}
			case batch.PhaseFactor:
				factor += s.Dur
			case batch.PhaseStability:
				stab += s.Dur
			case batch.PhaseProbe:
				probe += s.Dur
			}
		}
		for _, j := range rec.jobs {
			jobs++
			if j.cached {
				cached++
			}
			if j.shared {
				shared++
			}
			if j.cached {
				continue
			}
			fresh++
			steps += j.steps
			if j.stats != nil {
				statJobs++
				statSteps += j.stats.Steps
				rejected += j.stats.Rejected
				refactors += j.stats.Refactors
				stabRecomp += j.stats.StabilityRecomputes
			}
		}
	}
	capacity := tracedWall.Seconds() * nsim / float64(conc)
	return map[string]float64{
		"core.step_ns":              ratio(float64(march.Nanoseconds()), float64(steps)),
		"core.steps":                ratio(float64(steps), float64(fresh)),
		"core.rejected_frac":        ratio(float64(rejected), float64(statSteps+rejected)),
		"core.refactors_per_step":   ratio(float64(refactors), float64(statSteps)),
		"core.stability_recomputes": ratio(float64(stabRecomp), float64(statJobs)),
		"core.refactor_frac":        ratio(factor.Seconds(), march.Seconds()),
		"core.stability_frac":       ratio(stab.Seconds(), march.Seconds()),
		"harvester.march_frac":      ratio(march.Seconds(), capacity),
		"batch.worker_busy_frac":    ratio((march + probe).Seconds(), capacity),
		"batch.hit_frac":            ratio(float64(cached), float64(jobs)),
		"batch.shared":              ratio(float64(shared), float64(nTraced)),
		"batch.probe_frac":          ratio(probe.Seconds(), (probe + march).Seconds()),
		"tracing.overhead_frac":     ratio(median(wallOn), median(wallOff)) - 1,
	}
}

// spanP50 is the median duration [s] of the named spans.
func spanP50(sets [][]tracing.Span, name string) float64 {
	var d []float64
	for _, spans := range sets {
		for _, s := range spans {
			if s.Name == name {
				d = append(d, s.Dur.Seconds())
			}
		}
	}
	return median(d)
}

// fleetSpanLayers derives the service-side medians from sweeps' merged
// coordinator traces (worker execution, the coordinator's per-shard
// wall) and from the accept log.
func fleetSpanLayers(sets [][]tracing.Span, accepts []time.Duration) map[string]float64 {
	ms := make([]float64, len(accepts))
	for i, d := range accepts {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return map[string]float64{
		"server.accept_ms_p50": median(ms),
		"server.exec_s_p50":    spanP50(sets, "exec"),
		"shard.shard_s_p50":    spanP50(sets, "shard"),
	}
}

// scrape sums the samples of one metric family in a Prometheus text
// exposition (0 when the family is absent).
func scrape(text, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if strings.HasPrefix(rest, "{") {
			if i := strings.Index(rest, "}"); i >= 0 {
				rest = rest[i+1:]
			}
		}
		if !strings.HasPrefix(rest, " ") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			sum += v
		}
	}
	return sum
}

// collect reads one metric family out of a registry.
func collect(reg *metrics.Registry, name string) float64 {
	var b strings.Builder
	if err := reg.Collect(&b); err != nil {
		return 0
	}
	return scrape(b.String(), name)
}

// engineRung times the paper's comparison on the Table I charge
// scenario in this run: the proposed engine against the ExistingTrap
// implicit baseline, alternated, medians of three.
func engineRung() (map[string]float64, error) {
	const horizon = 0.5
	var prop, trap []float64
	var trapSteps int
	for i := 0; i < 3; i++ {
		for _, kind := range []harvester.EngineKind{harvester.Proposed, harvester.ExistingTrap} {
			start := time.Now()
			_, eng, err := harvester.RunScenario(harvester.ChargeScenario(horizon), kind, 1<<20)
			if err != nil {
				return nil, fmt.Errorf("engine rung %v: %w", kind, err)
			}
			d := time.Since(start).Seconds()
			if kind == harvester.Proposed {
				prop = append(prop, d)
			} else {
				trap = append(trap, d)
				trapSteps = batch.StatsOf(eng).Steps
			}
		}
	}
	return map[string]float64{
		"core.speedup_vs_implicit": ratio(median(trap), median(prop)),
		"implicit.step_ns":         ratio(median(trap)*1e9, float64(trapSteps)),
	}, nil
}

// callLayers times single calls into the layers on a workload's own
// inputs: one sweep's spec, its jobs, their warm results and cache.
func callLayers(spec wire.Spec, jobs []batch.Job, warm []batch.Result, cache *batch.Cache, workers []string) (map[string]float64, error) {
	const minBatch = 5 * time.Millisecond
	out := make(map[string]float64)
	keys := make([]batch.CacheKey, len(jobs))
	for i, j := range jobs {
		keys[i] = batch.KeyOf(j, batch.Options{})
	}
	i := 0
	out["batch.keyof_us"] = perOp(minBatch, func() { batch.KeyOf(jobs[i%len(jobs)], batch.Options{}); i++ }) / 1e3
	_, obj0 := heapAlloc()
	for _, j := range jobs {
		batch.KeyOf(j, batch.Options{})
	}
	_, obj1 := heapAlloc()
	out["batch.keyof_allocs"] = float64(obj1-obj0) / float64(len(jobs))
	out["batch.cache_get_ns"] = perOp(minBatch, func() {
		if _, ok := cache.Get(keys[i%len(keys)]); !ok {
			panic("warm cache lost an entry")
		}
		i++
	})

	pool := core.NewWorkspacePool()
	sc := jobs[0].Scenario
	var aerr error
	out["harvester.assemble_us"] = perOp(minBatch, func() {
		h, err := harvester.AssembleWith(sc, pool)
		if err != nil {
			aerr = err
			return
		}
		h.Release()
	}) / 1e3
	h, err := harvester.Assemble(sc)
	if aerr != nil || err != nil {
		return nil, fmt.Errorf("assemble: %v %v", aerr, err)
	}
	t, sink := 0.0, 0.0
	out["blocks.accel_ns"] = perOp(minBatch, func() { t += 1.7e-5; sink += h.Vib.Accel(t) })
	if math.IsNaN(sink) {
		return nil, fmt.Errorf("excitation evaluated to NaN")
	}

	var cerr error
	out["wire.compile_us"] = perOp(minBatch, func() {
		if _, err := compile(spec); err != nil {
			cerr = err
		}
	}) / 1e3
	if cerr != nil {
		return nil, cerr
	}
	lines := make([]wire.Result, len(warm))
	enc := make([][]byte, len(warm))
	size := 0
	for k, r := range warm {
		lines[k] = wire.ResultOf(r)
		if enc[k], err = json.Marshal(lines[k]); err != nil {
			return nil, err
		}
		size += len(enc[k])
	}
	out["wire.bytes_per_result"] = float64(size) / float64(len(enc))
	out["wire.result_encode_ns"] = perOp(minBatch, func() { json.Marshal(lines[i%len(lines)]); i++ })
	out["wire.result_decode_ns"] = perOp(minBatch, func() {
		var r wire.Result
		if json.Unmarshal(enc[i%len(enc)], &r) != nil {
			panic("wire result does not decode")
		}
		i++
	})
	out["batch.ensembles_us"] = perOp(minBatch, func() { batch.Ensembles(warm) }) / 1e3
	out["shard.keys_us"] = perOp(minBatch, func() { batch.Keys(jobs, batch.Options{}) }) / 1e3
	skeys := batch.Keys(jobs, batch.Options{})
	ring := shard.NewRing(workers)
	out["shard.assign_us"] = perOp(minBatch, func() { ring.Assign(skeys) }) / 1e3
	runtime.KeepAlive(sink)
	return out, nil
}

// ladder measures the service rungs on one warm sweep: in-process
// batch.Run on worker 0's cache, the same sweep over HTTP direct to
// worker 0, and through the coordinator. Worker 0 holds every point and
// each point's owner holds it, so all three resolve from cache. It
// returns the rung medians, the spans of traced coordinator repeats,
// and the warm in-process results.
func ladder(ctx context.Context, f *fleet, spec wire.Spec, jobs []batch.Job, reps int) (map[string]float64, [][]tracing.Span, []batch.Result, error) {
	w0 := f.urls[0]
	for _, base := range []string{w0, f.coordURL} {
		st, err := f.sweep(ctx, base, wire.SweepRequest{Spec: spec})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ladder priming: %w", err)
		}
		if st.sum.Failed != 0 {
			return nil, nil, nil, fmt.Errorf("ladder priming: %d jobs failed", st.sum.Failed)
		}
	}
	var inproc, direct, coord []float64
	var sets [][]tracing.Span
	var warm []batch.Result
	for r := 0; r < reps; r++ {
		start := time.Now()
		warm = batch.Run(ctx, jobs, batch.Options{Workers: 1, Cache: f.workers[0].Cache()})
		inproc = append(inproc, time.Since(start).Seconds())
		for _, res := range warm {
			if res.Err != nil || !res.Cached {
				return nil, nil, nil, fmt.Errorf("ladder: %s not served warm (err %v)", res.Name, res.Err)
			}
		}
		for _, leg := range []struct {
			base string
			into *[]float64
		}{{w0, &direct}, {f.coordURL, &coord}} {
			st, err := f.sweep(ctx, leg.base, wire.SweepRequest{Spec: spec})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("ladder: %w", err)
			}
			if err := warmCheck(st, len(jobs)); err != nil {
				return nil, nil, nil, err
			}
			*leg.into = append(*leg.into, st.wall.Seconds())
		}
		// Two traced sweeps submitted together, as two clients would:
		// their shards queue on the single-slot workers.
		var wg sync.WaitGroup
		traced := make([]streamed, 2)
		errs := make([]error, 2)
		for c := range traced {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				traced[c], errs[c] = f.sweep(ctx, f.coordURL, wire.SweepRequest{Spec: spec, Trace: tracing.NewTraceID()})
				if errs[c] == nil {
					errs[c] = warmCheck(traced[c], len(jobs))
				}
			}(c)
		}
		wg.Wait()
		for c := range traced {
			if errs[c] != nil {
				return nil, nil, nil, fmt.Errorf("ladder: %w", errs[c])
			}
			sets = append(sets, traced[c].spans)
		}
	}
	return map[string]float64{
		"server.transport_s": median(direct) - median(inproc),
		"shard.overhead_s":   median(coord) - median(direct),
	}, sets, warm, nil
}

// warmCheck requires every job of a warm sweep to be a cache hit.
func warmCheck(st streamed, jobs int) error {
	if st.sum.CacheHits != jobs || st.sum.Failed != 0 || len(st.lines) != jobs {
		return fmt.Errorf("warm sweep streamed %d/%d lines, %d hits, %d failed", len(st.lines), jobs, st.sum.CacheHits, st.sum.Failed)
	}
	return nil
}

// fleetCounters reads the fleet's own counters: lockstep dispatch on the
// workers (per sweep), the workers' mean queue wait (the exact histogram
// sum over its count; the wait is mostly zero, so a median says little),
// and the coordinator's fleet-health totals.
func fleetCounters(f *fleet, sweeps int) map[string]float64 {
	var units, members, qsum, qcount float64
	for _, w := range f.workers {
		units += collect(w.Metrics(), "harvsim_batch_lockstep_units_total")
		members += collect(w.Metrics(), "harvsim_batch_lockstep_members_total")
		qsum += collect(w.Metrics(), "harvsim_server_sweep_queue_seconds_sum")
		qcount += collect(w.Metrics(), "harvsim_server_sweep_queue_seconds_count")
	}
	return map[string]float64{
		"batch.lockstep_units":   ratio(units, float64(sweeps)),
		"batch.lockstep_members": ratio(members, float64(sweeps)),
		"server.queue_s_mean":    ratio(qsum, qcount),
		"shard.resharded":        collect(f.coord.Metrics(), "harvsim_coord_resharded_total"),
		"shard.lost_workers":     collect(f.coord.Metrics(), "harvsim_coord_lost_workers_total"),
	}
}

func merge(dst map[string]float64, srcs ...map[string]float64) map[string]float64 {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}

// layers of an in-process workload: its traced sweeps, its own batch
// counters, the engine rung, and a fleet started for the service rungs
// on the workload's first sweep.
func (w *inproc) layers(ctx context.Context, recs []sweepRec) (map[string]float64, error) {
	out := spanLayers(recs, 1)
	traced := 0
	for _, r := range recs {
		if r.traced {
			traced++
		}
	}
	f, err := startFleet(true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rungs, sets, warm, err := ladder(ctx, f, w.specs[0], w.jobs[0], 3)
	if err != nil {
		return nil, err
	}
	calls, err := callLayers(w.specs[0], w.jobs[0], warm, f.workers[0].Cache(), f.urls)
	if err != nil {
		return nil, err
	}
	eng, err := engineRung()
	if err != nil {
		return nil, err
	}
	counters := fleetCounters(f, 1)
	counters["batch.lockstep_units"] = ratio(collect(w.reg, "harvsim_batch_lockstep_units_total"), float64(traced))
	counters["batch.lockstep_members"] = ratio(collect(w.reg, "harvsim_batch_lockstep_members_total"), float64(traced))
	return merge(out, rungs, calls, eng, counters, fleetSpanLayers(sets, f.accepts.snapshot())), nil
}

// layers of refine_fleet: its traced sweeps and the fleet's own counters
// and spans, then the service rungs and layer calls on the base grid.
func (w *refine) layers(ctx context.Context, recs []sweepRec) (map[string]float64, error) {
	out := spanLayers(recs, nsim)
	var sets [][]tracing.Span
	for _, r := range recs {
		if r.traced {
			sets = append(sets, r.spans)
		}
	}
	counters := fleetCounters(w.f, len(recs))
	service := fleetSpanLayers(sets, w.f.accepts.snapshot())
	rungs, _, warm, err := ladder(ctx, w.f, w.base, w.baseJobs, 3)
	if err != nil {
		return nil, err
	}
	calls, err := callLayers(w.base, w.baseJobs, warm, w.f.workers[0].Cache(), w.f.urls)
	if err != nil {
		return nil, err
	}
	eng, err := engineRung()
	if err != nil {
		return nil, err
	}
	return merge(out, rungs, calls, eng, counters, service), nil
}
