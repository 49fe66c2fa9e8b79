// Sweep-service example: the batch layer as a long-lived HTTP/JSON
// endpoint.
//
// This example starts the sweep server in-process on a loopback port,
// submits a declarative 18-point Dickson design sweep as JSON, and
// consumes the NDJSON stream — results arrive progressively, as each
// design point completes. It then POSTs the identical spec a second
// time: the server's shared content-addressed cache answers every job
// without an engine run (all lines carry "cached":true and the metrics
// are bit-identical), which is what makes a shared server cache-warm
// for every client exploring the same design region.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"harvsim"
	"harvsim/internal/wire"
)

// spec is the declarative wire form of the sweep: no closures, just
// names from the parameter registry — exactly what a remote client
// would POST.
func spec() wire.SweepRequest {
	return wire.SweepRequest{Spec: wire.Spec{
		Name: "dickson",
		Scenario: wire.Scenario{
			Kind:      "charge",
			DurationS: 0.5,
			Set:       map[string]float64{"initial_vc": 2.5},
		},
		Metric: wire.MetricPStoreMeanSettled,
		Axes: []wire.Axis{
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{2, 3, 4, 5, 6, 7}},
			{Kind: wire.AxisFloat, Param: "dickson.cstage", Values: []float64{10e-6, 22e-6, 47e-6}},
		},
	}}
}

// refused exits non-zero with the error envelope a non-2xx reply
// carries (every error from the service speaks it).
func refused(what string, resp *http.Response) {
	var e wire.Error
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error.Code == "" {
		log.Fatalf("%s: %s", what, resp.Status)
	}
	log.Fatalf("%s: %s [%s]: %s", what, resp.Status, e.Error.Code, e.Error.Message)
}

// runOnce submits the spec and drains the stream, reporting progress and
// returning (cached lines, total lines).
func runOnce(base string, label string) (cached, total int) {
	body, err := json.Marshal(spec())
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		refused("submit", resp)
	}
	var acc wire.SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	stream, err := http.Get(base + acc.StreamURL)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		refused("stream", stream)
	}

	bestName, bestMetric := "", 0.0
	_, err = wire.ReadStream(stream.Body, func(line wire.Result) {
		total++
		if line.Cached {
			cached++
		}
		if total == 1 || float64(line.Metric) > bestMetric {
			bestName, bestMetric = line.Name, float64(line.Metric)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d results streamed in %v, best %s (%.3g uW)\n",
		label, total, time.Since(start).Round(time.Millisecond),
		bestName, bestMetric*1e6)
	return cached, total
}

func main() {
	// The server: one shared cache and workspace-pool set for its whole
	// lifetime. Embedding it is one Handler() mount; cmd/serve is the
	// standalone flavour of the same thing.
	srv := harvsim.Serve(harvsim.ServeOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("sweep service on %s\n\n", base)

	if c, n := runOnce(base, "cold run "); c != 0 {
		log.Fatalf("cold run reported %d/%d cached results", c, n)
	}
	cached, n := runOnce(base, "warm run ")
	if cached != n {
		log.Fatalf("warm repeat hit the cache %d/%d times, want all", cached, n)
	}
	fmt.Printf("\nwarm repeat served %d/%d jobs from the shared cache — zero engine runs.\n", cached, n)

	var cs wire.CacheStats
	resp, err := http.Get(base + "/v1/cache/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache: %d hits, %d misses, %d entries\n", cs.Hits, cs.Misses, cs.Entries)
}
