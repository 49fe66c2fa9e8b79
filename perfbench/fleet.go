package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"harvsim/internal/server"
	"harvsim/internal/shard"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// fleet is an in-process shard coordinator fronting nsim sweep servers,
// all on loopback listeners, plus the benchmark's HTTP client (at most
// two connections per host). Each server runs one sweep at a time on one
// simulation worker, so the fleet never simulates on more than nsim
// goroutines; concurrent shards queue.
type fleet struct {
	workers  []*server.Server
	urls     []string
	coord    *shard.Coordinator
	coordURL string
	client   *http.Client
	accepts  *acceptLog // nil unless worker accepts are timed

	https []*http.Server
	serve sync.WaitGroup
}

// startFleet starts the workers and the coordinator. With timeAccepts,
// every worker's POST /v1/sweep handling time is logged.
func startFleet(timeAccepts bool) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	if timeAccepts {
		f.accepts = &acceptLog{}
	}
	for i := 0; i < nsim; i++ {
		srv := server.New(server.Options{Workers: 1, MaxActive: 1})
		var h http.Handler = srv.Handler()
		if f.accepts != nil {
			h = f.accepts.wrap(h)
		}
		url, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		f.urls = append(f.urls, url)
	}
	f.coord = shard.New(shard.Options{Workers: f.urls})
	url, err := f.listen(f.coord.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.coordURL = url
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serve.Add(1)
	go func() {
		defer f.serve.Done()
		hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the coordinator down before its workers and waits for
// every serving goroutine to return.
func (f *fleet) close() {
	if f == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		if err := f.https[i].Shutdown(ctx); err != nil {
			f.https[i].Close()
		}
	}
	f.serve.Wait()
	f.client.CloseIdleConnections()
}

// acceptLog records how long workers take to accept sweep submissions
// (POST /v1/sweep to the 202 reply).
type acceptLog struct {
	mu sync.Mutex
	d  []time.Duration
}

func (a *acceptLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/sweep" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		a.mu.Lock()
		a.d = append(a.d, d)
		a.mu.Unlock()
	})
}

func (a *acceptLog) snapshot() []time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]time.Duration(nil), a.d...)
}

// streamed is one sweep as a client saw it over HTTP.
type streamed struct {
	wall, first time.Duration // submit to summary line, submit to first result line
	lines       []wire.Result
	sum         wire.Summary
	spans       []tracing.Span // when the request carried a trace id
}

// sweep submits req to base (a worker or the coordinator), streams the
// NDJSON result lines to the summary, and, for a traced request, then
// fetches the sweep's spans.
func (f *fleet) sweep(ctx context.Context, base string, req wire.SweepRequest) (streamed, error) {
	var out streamed
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(hreq)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	var acc wire.SweepAccepted
	err = decodeReply(resp, http.StatusAccepted, &acc)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	stream, err := f.get(ctx, base+acc.StreamURL)
	if err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	defer stream.Close()
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	done := false
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return out, fmt.Errorf("stream line: %w", err)
		}
		switch head.Type {
		case wire.LineResult:
			var r wire.Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return out, fmt.Errorf("result line: %w", err)
			}
			if len(out.lines) == 0 {
				out.first = time.Since(start)
			}
			out.lines = append(out.lines, r)
		case wire.LineSummary:
			if err := json.Unmarshal(sc.Bytes(), &out.sum); err != nil {
				return out, fmt.Errorf("summary line: %w", err)
			}
			out.wall = time.Since(start)
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	if !done {
		return out, errors.New("stream ended without a summary line")
	}
	if req.Trace != "" {
		out.spans, err = f.spans(ctx, base+"/v1/jobs/"+acc.ID+"/trace")
		if err != nil {
			return out, fmt.Errorf("trace: %w", err)
		}
	}
	return out, nil
}

// get sends a GET that must answer 200 and returns its body.
func (f *fleet) get(ctx context.Context, url string) (io.ReadCloser, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeReply(resp, http.StatusOK, nil)
	}
	return resp.Body, nil
}

// spans reads a sweep's NDJSON span stream.
func (f *fleet) spans(ctx context.Context, url string) ([]tracing.Span, error) {
	body, err := f.get(ctx, url)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var out []tracing.Span
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ln wire.SpanLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return nil, err
		}
		out = append(out, wire.SpanOf(ln))
	}
	return out, sc.Err()
}

// decodeReply checks a response's status, decodes its JSON body into v
// (when non-nil) and closes it. A non-matching status returns the
// canonical error envelope as an error.
func decodeReply(resp *http.Response, status int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != status {
		var env wire.Error
		json.NewDecoder(resp.Body).Decode(&env)
		return fmt.Errorf("HTTP %d: %s: %s", resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
