package server

import (
	"encoding/json"
	"net/http"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// maxRequestBody bounds a sweep request's JSON body. Specs are small
// (names and number lists); a megabyte is orders of magnitude of
// headroom, not a DoS surface.
const maxRequestBody = 1 << 20

// FrontDoor is the POST /v1/sweep request gate. The sweep server and
// the shard coordinator both admit requests through it, so a request
// either would reject gets the same status, code and retryable bit from
// both.
type FrontDoor struct {
	// Owner names the job budget in 413 messages ("server",
	// "coordinator").
	Owner string
	// MaxJobs is the budget on the declared grid size.
	MaxJobs int
	// Shards accepts the worker-protocol "indices" subset; a front door
	// without it takes whole sweeps only.
	Shards bool
}

// Admission is a request that passed the front door: its expanded jobs
// (only the indices subset, when one was given) and the timing of the
// compile-and-expand step, which the sweep's trace reports as
// "expand".
type Admission struct {
	Req         wire.SweepRequest
	Jobs        []batch.Job
	ExpandStart time.Time
	ExpandDur   time.Duration
}

// Admit decodes and validates a sweep request, compiles its spec and
// expands its jobs. On rejection it has already written the canonical
// error envelope and returns false.
//
// The order is the contract: strict decode (unknown fields are errors),
// version, settle_frac, indices on a front door without Shards, the
// declared grid size, indices order, and only then Compile and
// expansion. Compile materialises seed lists and expansion
// clones a Config per job, so a bad settle_frac costs a comparison and a
// few hundred bytes of hostile axis product are rejected while they are
// still arithmetic (Spec.Size saturates instead of overflowing). A shard
// subset's declared grid must clear the same budget, for the same
// reason.
func (d FrontDoor) Admit(w http.ResponseWriter, r *http.Request) (Admission, bool) {
	var req wire.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "bad request body: %v", err)
		return Admission{}, false
	}
	if err := req.Spec.CheckVersion(); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeUnsupportedVersion, false, "%v", err)
		return Admission{}, false
	}
	if req.SettleFrac < 0 || req.SettleFrac >= 1 {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
			"settle_frac must be in [0, 1), got %g", req.SettleFrac)
		return Admission{}, false
	}
	if len(req.Indices) > 0 && !d.Shards {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
			"indices are a worker-protocol field; submit whole sweeps to a %s", d.Owner)
		return Admission{}, false
	}
	if n := req.Spec.Size(); n > d.MaxJobs {
		WriteError(w, http.StatusRequestEntityTooLarge, wire.CodeTooManyJobs, false,
			"sweep would expand to %d jobs, %s budget is %d", n, d.Owner, d.MaxJobs)
		return Admission{}, false
	}
	for i, ix := range req.Indices {
		if i > 0 && ix <= req.Indices[i-1] {
			WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
				"indices must be strictly increasing: indices[%d]=%d after %d", i, ix, req.Indices[i-1])
			return Admission{}, false
		}
	}
	a := Admission{Req: req, ExpandStart: time.Now()}
	// The version already passed, so every Compile error is the spec's.
	spec, err := req.Spec.Compile()
	if err == nil {
		if len(req.Indices) > 0 {
			a.Jobs, err = spec.JobsAt(req.Indices)
		} else {
			a.Jobs, err = spec.Jobs()
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
		return Admission{}, false
	}
	a.ExpandDur = time.Since(a.ExpandStart)
	return a, true
}

// StartTrace opens the run's flight recorder when the request carries a
// trace id, returning the sweep's root span (nil when tracing is off).
// The root links to the caller's span (a coordinator's shard span), so
// fleet traces stay connected; the expansion, timed unconditionally by
// Admit, becomes its first child.
func (a Admission) StartTrace(run *Run) *tracing.Active {
	if a.Req.Trace == "" {
		return nil
	}
	rec := tracing.New(a.Req.Trace, 0)
	root := rec.Start("sweep", a.Req.Span)
	rec.Add("expand", root.ID(), -1, a.ExpandStart, a.ExpandDur)
	run.Trace = rec
	return root
}

// Accept writes the 202 reply to an admitted sweep.
func Accept(w http.ResponseWriter, run *Run) {
	WriteJSON(w, http.StatusAccepted, wire.SweepAccepted{
		V:         wire.Version,
		ID:        run.ID,
		Jobs:      run.Total,
		StatusURL: "/v1/jobs/" + run.ID,
		StreamURL: "/v1/jobs/" + run.ID + "/stream",
	})
}
