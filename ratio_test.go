package harvsim

// Same-run ratio tests for the layers above the engine. Each one times
// both sides by process CPU (exp.Timed), interleaved A,B,A,B, keeps the
// minimum of n runs per side and asserts a bound on the ratio of the
// minima, which depends far less on the machine than either time. The
// engine's own ratios (proposed vs implicit, Tables I/II and Duffing
// noise) live in internal/exp. CPU-time ratios mean nothing under the
// race detector, so these skip there and in -short runs.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/core"
	"harvsim/internal/exp"
	"harvsim/internal/server"
	"harvsim/internal/testenv"
)

func skipRatio(t *testing.T) {
	t.Helper()
	if testing.Short() || testenv.Race() {
		t.Skip("CPU-time ratio: needs a full, non-race build")
	}
}

// cpu adapts fn to exp.MinCPU: every call times one run of fn.
func cpu(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) { return exp.Timed(fn) }
}

// ratioReps is how many interleaved runs each side of a ratio gets.
const ratioReps = 21

// warmSweeps is how many sweeps one timed warm-cache sample runs, so
// that a sample lasts milliseconds rather than a few hundred
// microseconds.
const warmSweeps = 10

// ratioGridSim is the simulated span of each job of the 64-point grid
// the cache and service ratios sweep.
const ratioGridSim = 0.1

// sweepOK runs jobs through batch.Run against cache and checks every
// result; wantCached additionally requires each to be a cache hit.
func sweepOK(jobs []batch.Job, cache *batch.Cache, wantCached bool) error {
	for _, r := range batch.Run(context.Background(), jobs, batch.Options{Cache: cache}) {
		if r.Err != nil {
			return r.Err
		}
		if wantCached && !r.Cached {
			return fmt.Errorf("job %s missed the warm cache", r.Name)
		}
	}
	return nil
}

// warmDirect returns a primed cache for jobs and a function that runs
// warmSweeps warm sweeps against it.
func warmDirect(t *testing.T, jobs []batch.Job) func() error {
	t.Helper()
	cache := batch.NewCache(0)
	if err := sweepOK(jobs, cache, false); err != nil {
		t.Fatal(err)
	}
	return func() error {
		for i := 0; i < warmSweeps; i++ {
			if err := sweepOK(jobs, cache, true); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestCacheColdWarmRatio bounds what a content-addressed cache hit
// costs against running the job: the warm 64-point grid must be served
// at least cacheRatioFloor times cheaper than the cold one.
func TestCacheColdWarmRatio(t *testing.T) {
	skipRatio(t)
	jobs := batchSweepGrid(ratioGridSim)
	cold := func() error { return sweepOK(jobs, batch.NewCache(0), false) }
	best, err := exp.MinCPU(ratioReps, cpu(cold), cpu(warmDirect(t, jobs)))
	if err != nil {
		t.Fatal(err)
	}
	warm := best[1] / warmSweeps
	ratio := float64(best[0]) / float64(warm)
	t.Logf("cold sweep %v, warm sweep %v, ratio %.0f", best[0], warm, ratio)
	if ratio < cacheRatioFloor {
		t.Errorf("cold/warm CPU ratio %.0f, want >= %.0f", ratio, cacheRatioFloor)
	}
}

// cacheRatioFloor is TestCacheColdWarmRatio's floor.
const cacheRatioFloor = 40.0

// TestServerWarmRatio bounds the service path: the same warm grid
// served by the sweep server over HTTP (request compile, 64 cache
// lookups, NDJSON encode and decode) may cost at most serverRatioCeiling
// times the direct batch.Run.
func TestServerWarmRatio(t *testing.T) {
	skipRatio(t)
	req := serverGridSpec(ratioGridSim)
	ts := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts.Close()
	if n, _ := runServerSweep(t, ts, req); n != 64 {
		t.Fatalf("prime run streamed %d results, want 64", n)
	}
	viaServer := func() error {
		for i := 0; i < warmSweeps; i++ {
			if n, hits := runServerSweep(t, ts, req); n != 64 || hits != 64 {
				return fmt.Errorf("warm sweep: %d results, %d hits, want 64/64", n, hits)
			}
		}
		return nil
	}
	best, err := exp.MinCPU(ratioReps, cpu(viaServer), cpu(warmDirect(t, batchSweepGrid(ratioGridSim))))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(best[0]) / float64(best[1])
	t.Logf("server warm %v, direct warm %v (%d sweeps each), ratio %.2f", best[0], best[1], warmSweeps, ratio)
	if ratio > serverRatioCeiling {
		t.Errorf("server/direct warm CPU ratio %.2f, want <= %.2f", ratio, serverRatioCeiling)
	}
}

// serverRatioCeiling is TestServerWarmRatio's ceiling.
const serverRatioCeiling = 9.0

// TestTraceOnOffRatio bounds what phase tracing costs the warm step:
// one warm engine marches on, alternately untraced and with
// Engine.Phases armed, and the traced stretches may take at most
// traceRatioCeiling times the CPU of the untraced ones. Using a single
// engine keeps memory layout out of the ratio.
func TestTraceOnOffRatio(t *testing.T) {
	skipRatio(t)
	eng := traceOverheadEngine(t)
	steps := func(phases *core.PhaseTimes) func() error {
		return func() error {
			eng.Phases = phases
			for i := 0; i < 5000; i++ {
				if _, err := eng.Step(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	best, err := exp.MinCPU(ratioReps, cpu(steps(nil)), cpu(steps(&core.PhaseTimes{})))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(best[1]) / float64(best[0])
	t.Logf("5000 warm steps: off %v, on %v, ratio %.3f", best[0], best[1], ratio)
	if ratio > traceRatioCeiling {
		t.Errorf("traced/untraced CPU ratio %.3f, want <= %.2f", ratio, traceRatioCeiling)
	}
}

// traceRatioCeiling is TestTraceOnOffRatio's ceiling.
const traceRatioCeiling = 1.3
