package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harvsim/internal/server"
	"harvsim/internal/wire"
)

// TestFrontDoorParity: a worker and a coordinator with the same job
// budget reject every bad request with the same status, error code and
// retryable bit — they admit sweeps through one front door and serve
// job resources through one set of handlers. Every case is refused
// before the coordinator probes its fleet, so its one worker can be
// unreachable.
func TestFrontDoorParity(t *testing.T) {
	const maxJobs = 10
	worker := httptest.NewServer(server.New(server.Options{MaxJobs: maxJobs}).Handler())
	defer worker.Close()
	coord := httptest.NewServer(New(Options{Workers: []string{"http://127.0.0.1:1"}, MaxJobs: maxJobs}).Handler())
	defer coord.Close()

	body := func(req wire.SweepRequest) string {
		b, _ := json.Marshal(req)
		return string(b)
	}
	future := grid64(0.25)
	future.V = wire.Version + 1

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed body", "POST", "/v1/sweep", "{", http.StatusBadRequest, wire.CodeBadRequest},
		{"unknown field", "POST", "/v1/sweep",
			`{"spec":{"scenario":{"kind":"charge","duration_s":1}},"frobnicate":1}`,
			http.StatusBadRequest, wire.CodeBadRequest},
		{"unknown scenario kind", "POST", "/v1/sweep",
			`{"spec":{"scenario":{"kind":"warp","duration_s":1}}}`,
			http.StatusBadRequest, wire.CodeBadRequest},
		{"future version", "POST", "/v1/sweep", body(wire.SweepRequest{Spec: future}),
			http.StatusBadRequest, wire.CodeUnsupportedVersion},
		{"settle_frac 1.5", "POST", "/v1/sweep", body(wire.SweepRequest{Spec: grid64(0.25), SettleFrac: 1.5}),
			http.StatusBadRequest, wire.CodeBadRequest},
		{"grid over MaxJobs", "POST", "/v1/sweep", body(wire.SweepRequest{Spec: grid64(0.25)}),
			http.StatusRequestEntityTooLarge, wire.CodeTooManyJobs},
		{"unknown job", "GET", "/v1/jobs/nope", "", http.StatusNotFound, wire.CodeNotFound},
		{"wrong method", "GET", "/v1/sweep", "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed},
	}
	type reply struct {
		status int
		err    wire.ErrorDetail
	}
	do := func(base, method, path, payload string) reply {
		var rd io.Reader
		if payload != "" {
			rd = strings.NewReader(payload)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e wire.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: no error envelope: %v", method, path, err)
		}
		return reply{resp.StatusCode, e.Error}
	}
	for _, tc := range cases {
		w := do(worker.URL, tc.method, tc.path, tc.body)
		c := do(coord.URL, tc.method, tc.path, tc.body)
		if w.status != tc.wantStatus || w.err.Code != tc.wantCode || w.err.Message == "" {
			t.Errorf("%s: worker replied %d %+v, want %d %s", tc.name, w.status, w.err, tc.wantStatus, tc.wantCode)
		}
		if c.status != w.status || c.err.Code != w.err.Code || c.err.Retryable != w.err.Retryable {
			t.Errorf("%s: coordinator replied %d %s retryable=%v, worker %d %s retryable=%v",
				tc.name, c.status, c.err.Code, c.err.Retryable, w.status, w.err.Code, w.err.Retryable)
		}
	}
}
