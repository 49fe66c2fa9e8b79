package harvsim

// Fleet-throughput benchmarks: the same cold sweep submitted through
// the shard coordinator backed by one worker versus three. Each worker
// is pinned to a single simulation goroutine (server.Options{Workers:
// 1}), so the pair models a fleet of single-core hosts: with real
// hardware behind each worker the three-way split approaches 3x the
// one-worker throughput, and the delta between the two benchmarks is
// the coordinator's whole overhead budget (shard fan-out, three HTTP
// streams, merge ordering).
//
// On a one- or two-core machine the three in-process workers
// time-slice the same CPUs, so the >= 2x multi-worker speedup the design
// achieves on real fleets cannot appear here; the pair is gated on
// allocs/op only, not on a cross-pair ratio the hardware cannot show.

import (
	"net/http/httptest"
	"testing"

	"harvsim/internal/server"
	"harvsim/internal/shard"
	"harvsim/internal/wire"
)

// coordGridSpec is a 256-point cold grid: 16 coil resistances x 16
// multiplier stage counts over the charge scenario, four times the
// service benchmark's grid so the shard split has real work to divide.
func coordGridSpec(simFor float64) wire.SweepRequest {
	rc := make([]float64, 16)
	for i := range rc {
		rc[i] = 100 * float64(i+1)
	}
	stages := make([]int, 16)
	for i := range stages {
		stages[i] = i + 2
	}
	return wire.SweepRequest{Spec: wire.Spec{
		V:        wire.Version,
		Name:     "coordgrid",
		Scenario: wire.Scenario{Kind: "charge", DurationS: simFor, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: rc},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: stages},
		},
	}}
}

// benchCoordSweep runs one cold coordinated sweep per iteration over a
// fresh fleet of n single-goroutine workers.
func benchCoordSweep(b *testing.B, nWorkers int, allocBaseline uint64) {
	req := coordGridSpec(0.5)
	g := gateAllocs(b, allocBaseline)
	defer g.check()
	for i := 0; i < b.N; i++ {
		g.StopTimer()
		workers := make([]*httptest.Server, nWorkers)
		urls := make([]string, nWorkers)
		for w := range workers {
			workers[w] = httptest.NewServer(server.New(server.Options{Workers: 1}).Handler())
			urls[w] = workers[w].URL
		}
		coord := httptest.NewServer(shard.New(shard.Options{Workers: urls}).Handler())
		g.StartTimer()
		if n, _ := runServerSweep(b, coord, req); n != 256 {
			b.Fatalf("streamed %d results, want 256", n)
		}
		g.StopTimer()
		coord.Close()
		for _, w := range workers {
			w.Close()
		}
		g.StartTimer()
	}
}

// BenchmarkCoordSweep_1Worker is the degenerate fleet: every job on one
// single-goroutine worker, plus the full coordinator transport path.
func BenchmarkCoordSweep_1Worker(b *testing.B) { benchCoordSweep(b, 1, 92781) }

// BenchmarkCoordSweep_3Workers splits the identical grid across three
// single-goroutine workers by content-key rendezvous hash.
func BenchmarkCoordSweep_3Workers(b *testing.B) { benchCoordSweep(b, 3, 95555) }
