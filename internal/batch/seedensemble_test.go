package batch

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"harvsim/internal/harvester"
)

// seedEnsembleJobs builds one design point's seed ensemble: k jobs
// sharing a Group and differing only in the noise realisation seed.
func seedEnsembleJobs(k int, duration float64, kind harvester.EngineKind) []Job {
	jobs := make([]Job, k)
	for i, seed := range Seeds(7, k) {
		sc := harvester.NoiseScenario(duration, 55, 85, seed)
		jobs[i] = Job{
			Name:     "ens",
			Group:    "point-0",
			Seed:     seed,
			Scenario: sc,
			Engine:   kind,
		}
	}
	return jobs
}

// requireSameResults asserts two runs of one job list agree bit for bit
// on every cacheable field and on the content-address key.
func requireSameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		samePhysics(t, label, a[i], b[i])
		if a[i].Key != b[i].Key {
			t.Errorf("%s[%d]: cache key %q vs %q", label, i, a[i].Key, b[i].Key)
		}
	}
}

// TestSeedEnsembleMatchesSingleJobRuns: a seed-grouped ensemble run in
// one batch — members marching on recycled same-shape workspaces —
// produces bit-identical Results (metrics, final state, energy
// bookkeeping and engine work counters) to each member run alone.
func TestSeedEnsembleMatchesSingleJobRuns(t *testing.T) {
	jobs := seedEnsembleJobs(5, 0.3, harvester.Proposed)
	together := RunSerial(jobs, Options{})
	alone := make([]Result, len(jobs))
	for i := range jobs {
		alone[i] = RunSerial(jobs[i:i+1], Options{})[0]
	}
	requireSameResults(t, "proposed", alone, together)
}

// TestSeedEnsembleCacheInterop: a cache warmed by an ensemble run serves
// every member of a rerun, and a partially warmed ensemble simulates
// only its missing members, with results bit-identical either way.
func TestSeedEnsembleCacheInterop(t *testing.T) {
	jobs := seedEnsembleJobs(4, 0.25, harvester.Proposed)

	cache := NewCache(0)
	first := RunSerial(jobs, Options{Cache: cache})
	for i, r := range first {
		if r.Err != nil || r.Cached {
			t.Fatalf("first[%d]: err=%v cached=%v", i, r.Err, r.Cached)
		}
		if r.Key == "" {
			t.Fatalf("first[%d]: no cache key", i)
		}
	}
	second := Run(context.Background(), jobs, Options{Cache: cache, Workers: 2})
	for i, r := range second {
		if r.Err != nil || !r.Cached {
			t.Fatalf("second[%d]: err=%v cached=%v (want hit)", i, r.Err, r.Cached)
		}
	}
	requireSameResults(t, "warm", first, second)

	// Partially warmed: a fresh cache with only member 1's entry.
	partial := NewCache(0)
	RunSerial(jobs[1:2], Options{Cache: partial})
	third := RunSerial(jobs, Options{Cache: partial})
	for i, r := range third {
		if r.Cached != (i == 1) {
			t.Errorf("partial[%d]: cached=%v, want %v", i, r.Cached, i == 1)
		}
	}
	requireSameResults(t, "partial", first, third)
}

// TestSeedEnsembleSingleflight is the sweep-server situation for a seed
// ensemble: two concurrent Runs of one 4-seed ensemble on a shared
// cache. Every member takes the ordinary job path, singleflight
// included, so the engine runs exactly once per seed and the other
// run's members are served as shares or cache hits.
func TestSeedEnsembleSingleflight(t *testing.T) {
	var engineRuns atomic.Int64
	jobs := seedEnsembleJobs(4, 0.25, harvester.Proposed)
	for i := range jobs {
		// A pure, MetricKey-declared metric keeps the jobs cacheable and
		// executes only on a real simulation: its call count is the
		// number of engine runs.
		jobs[i].MetricKey = "rms-counted"
		jobs[i].Metric = func(h *harvester.Harvester, eng harvester.Engine) float64 {
			engineRuns.Add(1)
			return h.PMultIn.Slice(0.25/3, 0.25).RMS()
		}
	}
	cache := NewCache(0)
	start := make(chan struct{})
	var runs [2][]Result
	var wg sync.WaitGroup
	for r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runs[r] = Run(context.Background(), jobs, Options{Workers: len(jobs), Cache: cache})
		}()
	}
	close(start)
	wg.Wait()

	if got := engineRuns.Load(); got != int64(len(jobs)) {
		t.Fatalf("two concurrent runs of a %d-seed ensemble ran %d engines, want %d",
			len(jobs), got, len(jobs))
	}
	fresh := 0
	for r := range runs {
		for _, res := range runs[r] {
			if res.Err != nil {
				t.Fatalf("run %d job %d: %v", r, res.Index, res.Err)
			}
			if !res.Cached {
				fresh++
			}
		}
	}
	if fresh != len(jobs) {
		t.Errorf("fresh results %d, want %d (the rest shared or cached)", fresh, len(jobs))
	}
	requireSameResults(t, "concurrent", runs[0], runs[1])
}
