package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Run is one submitted sweep's lifecycle state, shared by the single-host
// server and the shard coordinator. results accumulates in completion
// order (the stream order); done flips exactly once, after the last
// result is recorded. cond (over mu) wakes streamers on every append and
// on completion.
type Run struct {
	ID      string
	Total   int
	Started time.Time
	Cancel  context.CancelFunc
	// Trace is the sweep's flight recorder, non-nil only when the request
	// asked for tracing; set before the 202 is written and never after,
	// so handlers read it without the run lock.
	Trace *tracing.Recorder

	mu      sync.Mutex
	cond    *sync.Cond
	results []wire.Result
	failed  int
	hits    int
	shared  int
	done    bool
	summary wire.Summary
}

// NewRun builds a run in the "running" state.
func NewRun(id string, total int, cancel context.CancelFunc) *Run {
	run := &Run{ID: id, Total: total, Started: time.Now(), Cancel: cancel}
	run.cond = sync.NewCond(&run.mu)
	return run
}

// Record appends one completed job's wire result (called concurrently
// from every worker / every shard stream).
func (run *Run) Record(r wire.Result) {
	run.mu.Lock()
	run.results = append(run.results, r)
	if r.Error != "" {
		run.failed++
	}
	if r.Cached {
		run.hits++
	}
	if r.Shared {
		run.shared++
	}
	run.mu.Unlock()
	run.cond.Broadcast()
}

// Finish marks the run complete with its summary line.
func (run *Run) Finish(summary wire.Summary) {
	run.mu.Lock()
	run.summary = summary
	run.done = true
	run.mu.Unlock()
	run.cond.Broadcast()
}

// Done reports completion.
func (run *Run) Done() bool {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.done
}

// Status snapshots the run as a wire.JobStatus; withResults includes the
// completion-ordered result list when done.
func (run *Run) Status(withResults bool) wire.JobStatus {
	run.mu.Lock()
	defer run.mu.Unlock()
	st := wire.JobStatus{
		V:         wire.Version,
		ID:        run.ID,
		State:     wire.StateRunning,
		Jobs:      run.Total,
		Completed: len(run.results),
		Failed:    run.failed,
		CacheHits: run.hits,
		Shared:    run.shared,
		ElapsedMS: time.Since(run.Started).Milliseconds(),
	}
	if run.done {
		st.State = wire.StateDone
		// End-to-end elapsed: queue wait plus execution wall (they are
		// reported separately in the summary).
		st.ElapsedMS = run.summary.QueuedMS + run.summary.WallMS
		sum := run.summary
		st.Summary = &sum
		if withResults {
			st.Results = append([]wire.Result(nil), run.results...)
		}
	}
	return st
}

// Runs is an id-keyed registry of sweep runs with bounded retention of
// finished ones.
type Runs struct {
	prefix string
	keep   int

	mu   sync.Mutex
	seq  int64
	jobs map[string]*Run
	// finished ids in completion order, for retention eviction.
	doneOrder []string
}

// NewRuns builds a registry. Ids are prefix + sequence number;
// keepFinished bounds how many finished runs stay queryable (oldest
// dropped first), 0 means the default of 128.
func NewRuns(prefix string, keepFinished int) *Runs {
	if keepFinished <= 0 {
		keepFinished = 128
	}
	return &Runs{prefix: prefix, keep: keepFinished, jobs: make(map[string]*Run)}
}

// New registers a fresh run.
func (rs *Runs) New(total int, cancel context.CancelFunc) *Run {
	rs.mu.Lock()
	rs.seq++
	run := NewRun(rs.prefix+strconv.FormatInt(rs.seq, 10), total, cancel)
	rs.jobs[run.ID] = run
	rs.mu.Unlock()
	return run
}

// Lookup resolves an id; nil when unknown (or evicted).
func (rs *Runs) Lookup(id string) *Run {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.jobs[id]
}

// Retire records a finished run and evicts the oldest finished ones
// beyond the retention bound.
func (rs *Runs) Retire(id string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.doneOrder = append(rs.doneOrder, id)
	for len(rs.doneOrder) > rs.keep {
		delete(rs.jobs, rs.doneOrder[0])
		rs.doneOrder = rs.doneOrder[1:]
	}
}

// Active counts unfinished runs.
func (rs *Runs) Active() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, run := range rs.jobs {
		if !run.Done() {
			n++
		}
	}
	return n
}

// Mount registers the job-resource routes over the registry on mux.
// The sweep server and the shard coordinator both serve their runs
// through these handlers:
//
//	GET    /v1/jobs/{id}        status; ?results=1 adds the result list once done
//	GET    /v1/jobs/{id}/stream NDJSON results, then the summary (ServeStream)
//	GET    /v1/jobs/{id}/trace  NDJSON spans of a traced sweep (ServeTrace)
//	DELETE /v1/jobs/{id}        cancel a running sweep
func (rs *Runs) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/jobs/{id}", rs.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", rs.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", rs.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rs.handleCancel)
}

// lookup resolves the request's job id, replying 404 when it is
// unknown (or evicted).
func (rs *Runs) lookup(w http.ResponseWriter, r *http.Request) *Run {
	id := r.PathValue("id")
	run := rs.Lookup(id)
	if run == nil {
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, false, "unknown job %q", id)
	}
	return run
}

func (rs *Runs) handleJob(w http.ResponseWriter, r *http.Request) {
	if run := rs.lookup(w, r); run != nil {
		WriteJSON(w, http.StatusOK, run.Status(r.URL.Query().Get("results") == "1"))
	}
}

func (rs *Runs) handleStream(w http.ResponseWriter, r *http.Request) {
	if run := rs.lookup(w, r); run != nil {
		ServeStream(w, r, run)
	}
}

// handleTrace replays the run's flight recorder. A sweep submitted
// without a trace id has no recorder and reports 404.
func (rs *Runs) handleTrace(w http.ResponseWriter, r *http.Request) {
	run := rs.lookup(w, r)
	if run == nil {
		return
	}
	if run.Trace == nil {
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, false,
			"job %q was not traced (submit with a \"trace\" id)", run.ID)
		return
	}
	ServeTrace(w, r, run.Trace)
}

// handleCancel cancels a running sweep's context. Running jobs finish
// (engines are non-preemptible) and unstarted jobs report cancellation;
// a coordinator's shard streams abort while its workers' sub-sweeps run
// to their own budgets. A finished run reports "done" instead of
// pretending to cancel — client and coordinator retry logic must not
// misread a completed sweep as still winding down.
func (rs *Runs) handleCancel(w http.ResponseWriter, r *http.Request) {
	run := rs.lookup(w, r)
	if run == nil {
		return
	}
	status := "cancelling"
	if run.Done() {
		status = "done"
	} else {
		run.Cancel()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"v": wire.Version, "id": run.ID, "status": status})
}

// ServeStream writes a run as NDJSON: every result line as it completes,
// then the summary line. Late subscribers get a full replay; a
// ?from=<n> cursor skips the first n lines of the completion-ordered
// replay instead, which is how a client (or the shard coordinator's
// retry path) resumes a stream that died after n lines without paying
// for — or double-counting — what it already has. Large grids render
// progressively because each line is flushed as written.
func ServeStream(w http.ResponseWriter, r *http.Request, run *Run) {
	next := 0
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
				"from must be a non-negative integer, got %q", from)
			return
		}
		next = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must unblock the cond wait below. The
	// monitor takes run.mu before broadcasting so the wake-up cannot slip
	// into the gap between the loop's ctx.Err() check and its
	// cond.Wait registration (a lost wake-up would strand the handler
	// until the sweep's next result).
	ctx := r.Context()
	go func() {
		<-ctx.Done()
		run.mu.Lock()
		//lint:ignore SA2001 empty critical section on purpose: it
		// serialises with the check-then-Wait window before waking.
		run.mu.Unlock()
		run.cond.Broadcast()
	}()

	for {
		run.mu.Lock()
		for next >= len(run.results) && !run.done && ctx.Err() == nil {
			run.cond.Wait()
		}
		var chunk []wire.Result
		if next < len(run.results) {
			chunk = run.results[next:len(run.results):len(run.results)]
		}
		next += len(chunk)
		done := run.done && next >= len(run.results)
		summary := run.summary
		run.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		for _, line := range chunk {
			if enc.Encode(line) != nil {
				return // client went away
			}
		}
		if done {
			enc.Encode(summary)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil && len(chunk) > 0 {
			flusher.Flush()
		}
	}
}
