package harvsim

// Service-path overhead benchmarks: the same 64-point design grid as
// BenchmarkSweepCache_{Cold,Warm}, but submitted to the sweep server
// over HTTP and consumed as an NDJSON stream. The Cold/Warm deltas
// against the direct batch benchmarks record what the transport layer
// costs (JSON compile, HTTP round-trips, stream encoding) on top of the
// simulation and cache work — the number that tells us when the service
// front-end, not the physics, becomes the bottleneck.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"harvsim/internal/server"
	"harvsim/internal/wire"
)

// serverGridSpec is the wire form of bench_test.go's batchSweepGrid: the
// 8x8 coil-resistance x multiplier-stages grid over the charge scenario.
func serverGridSpec(simFor float64) wire.SweepRequest {
	return wire.SweepRequest{Spec: wire.Spec{
		Name:     "grid",
		Scenario: wire.Scenario{Kind: "charge", DurationS: simFor, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600}},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6, 7, 8, 9, 10}},
		},
	}}
}

// runServerSweep submits the spec and drains the stream, returning
// (results, cache hits) and failing the benchmark on any job error.
func runServerSweep(b testing.TB, ts *httptest.Server, req wire.SweepRequest) (results, hits int) {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var acc wire.SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	stream, err := http.Get(ts.URL + acc.StreamURL)
	if err != nil {
		b.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			b.Fatal(err)
		}
		if probe.Type != wire.LineResult {
			continue // summary line
		}
		var line wire.Result
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			b.Fatal(err)
		}
		if line.Error != "" {
			b.Fatalf("%s: %s", line.Name, line.Error)
		}
		results++
		if line.Cached {
			hits++
		}
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}
	return results, hits
}

// BenchmarkServerSweep_Cold serves the 64-point grid through a fresh
// server (empty cache) per iteration — simulation cost plus the full
// transport overhead.
func BenchmarkServerSweep_Cold(b *testing.B) {
	req := serverGridSpec(0.5)
	g := gateAllocs(b, 15927)
	defer g.check()
	for i := 0; i < b.N; i++ {
		g.StopTimer()
		ts := httptest.NewServer(server.New(server.Options{}).Handler())
		g.StartTimer()
		if n, _ := runServerSweep(b, ts, req); n != 64 {
			b.Fatalf("streamed %d results, want 64", n)
		}
		g.StopTimer()
		ts.Close()
		g.StartTimer()
	}
}

// BenchmarkServerSweep_Warm repeats the identical grid against one
// long-lived server process with a primed cache: zero engine runs, so
// the measured cost is pure service path — request compile, 64 cache
// lookups, NDJSON encoding and streaming.
func BenchmarkServerSweep_Warm(b *testing.B) {
	req := serverGridSpec(0.5)
	ts := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts.Close()
	if n, _ := runServerSweep(b, ts, req); n != 64 {
		b.Fatal("prime run incomplete")
	}
	defer gateAllocs(b, 8076).check()
	for i := 0; i < b.N; i++ {
		n, hits := runServerSweep(b, ts, req)
		if n != 64 || hits != 64 {
			b.Fatalf("warm iteration: %d results, %d hits, want 64/64", n, hits)
		}
	}
}
