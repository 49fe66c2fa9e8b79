package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// TestCoordinatedTraceIsConnected pins the tentpole acceptance
// criterion: a 3-worker coordinated sweep submitted with a trace id
// yields ONE connected trace — every span emitted by the coordinator
// and by each worker is reachable from the single sweep root via
// parent links, after the coordinator imports each shard's spans.
func TestCoordinatedTraceIsConnected(t *testing.T) {
	_, urls := startFleet(t, 3)
	coord := New(Options{Workers: urls})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	trace := tracing.NewTraceID()
	acc := post(t, ts.URL, wire.SweepRequest{Spec: grid64(0.02), Trace: trace})
	results, _ := stream(t, ts.URL, acc, nil)
	if len(results) != 64 {
		t.Fatalf("got %d results, want 64", len(results))
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s", resp.Status)
	}
	var spans []wire.SpanLine
	dec := json.NewDecoder(resp.Body)
	for {
		var ln wire.SpanLine
		if err := dec.Decode(&ln); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("bad span line: %v", err)
		}
		spans = append(spans, ln)
	}

	if len(spans) < 64 {
		t.Fatalf("%d spans for 64 jobs", len(spans))
	}
	byID := make(map[string]wire.SpanLine, len(spans))
	var roots []wire.SpanLine
	jobSpans, shardWorkers := 0, map[string]bool{}
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("span %s carries trace %q, want %q", s.ID, s.Trace, trace)
		}
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %s", s.ID)
		}
		byID[s.ID] = s
		if s.Parent == "" {
			roots = append(roots, s)
		}
		if s.Name == "job" {
			jobSpans++
		}
		if s.Name == "shard" {
			shardWorkers[s.Worker] = true
		}
	}
	if len(roots) != 1 || roots[0].Name != "sweep" {
		t.Fatalf("want exactly one root 'sweep' span, got %+v", roots)
	}
	if jobSpans != 64 {
		t.Fatalf("%d job spans for 64 jobs", jobSpans)
	}
	// Rendezvous over a 64-point grid spreads across all three workers;
	// each placement produced a coordinator-side shard span tagged with
	// the worker URL.
	if len(shardWorkers) != 3 {
		t.Fatalf("shard spans cover workers %v, want all 3", shardWorkers)
	}
	for _, s := range spans {
		hops := 0
		for cur := s; cur.Parent != ""; hops++ {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s (%s, worker %q) has dangling parent %s",
					s.ID, s.Name, s.Worker, cur.Parent)
			}
			if hops > len(spans) {
				t.Fatalf("parent cycle at span %s", s.ID)
			}
			cur = p
		}
	}
}

// TestCoordVersionStampOnAllJSONRoutes mirrors the server-side check:
// every JSON body the coordinator emits carries the wire-version stamp.
func TestCoordVersionStampOnAllJSONRoutes(t *testing.T) {
	_, urls := startFleet(t, 2)
	coord := New(Options{Workers: urls})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	acc := post(t, ts.URL, wire.SweepRequest{Spec: grid64(0.01)})
	stream(t, ts.URL, acc, nil)

	checkStamp := func(name string, body []byte) {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, ok := m["v"].(float64)
		if !ok || int(v) != wire.Version {
			t.Fatalf("%s: response carries no v=%d stamp: %s", name, wire.Version, body)
		}
	}

	accBody, err := json.Marshal(acc)
	if err != nil {
		t.Fatal(err)
	}
	checkStamp("POST /v1/sweep", accBody)

	for _, route := range []string{
		"/v1/jobs/" + acc.ID,
		"/v1/workers",
		"/healthz",
	} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", route, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkStamp("GET "+route, body)
	}
}
