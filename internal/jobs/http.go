package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/muontrap"
)

// The /v1 surface both daemons serve. Routes (all JSON; full reference
// in docs/API.md):
//
//	POST   /v1/jobs              submit a sweep            → 202 Job (200 if served from the result store)
//	GET    /v1/jobs              list jobs                 → 200 {"jobs": [Job]}
//	GET    /v1/jobs/{id}         job status                → 200 Job
//	GET    /v1/jobs/{id}/stream  progress over SSE         (resumable via Last-Event-ID)
//	GET    /v1/jobs/{id}/result  completed SweepResult     → 200 | 409 while not done
//	DELETE /v1/jobs/{id}         cancel                    → 202 Job
//	POST   /v1/jobs/{id}/resume  re-queue with resume      → 202 Job
//	GET    /v1/results/{key}     SweepResult by cache key  → 200 | 404
//	GET    /v1/catalog           workload/scheme/figure/attack registries → 200
//	GET    /v1/healthz           liveness + backend Stats  → 200 (never behind auth)

// MaxBodyBytes bounds any request body.
const MaxBodyBytes = 1 << 20

// apiError is the JSON error envelope. Code is machine-readable and maps
// 1:1 onto the muontrap.ErrUnknown* sentinels (see errorCode); the
// client package performs the reverse mapping so errors.Is works across
// the wire.
type apiError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// conflictError marks a request that names a real resource in the wrong
// state (HTTP 409).
type conflictError struct{ msg string }

func (e *conflictError) Error() string { return e.msg }

// Conflict builds a 409 error.
func Conflict(format string, args ...any) error {
	return &conflictError{fmt.Sprintf(format, args...)}
}

// forbiddenError marks an authenticated request acting on another
// tenant's job (HTTP 403).
type forbiddenError struct{ msg string }

func (e *forbiddenError) Error() string { return e.msg }

// Forbidden builds a 403 error.
func Forbidden(format string, args ...any) error {
	return &forbiddenError{fmt.Sprintf(format, args...)}
}

// shedError is an admission refusal: the request was not queued, and the
// client should retry after the hinted delay.
type shedError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// Shed builds an admission refusal: status 429 is a per-tenant quota,
// 503 the whole-daemon queue bound.
func Shed(status int, retryAfter time.Duration, format string, args ...any) error {
	return &shedError{status: status, retryAfter: retryAfter, msg: fmt.Sprintf(format, args...)}
}

// errorCode maps an error to its wire code and HTTP status.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, muontrap.ErrUnknownWorkload):
		return "unknown_workload", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownScheme):
		return "unknown_scheme", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownFigure):
		return "unknown_figure", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownAttack):
		return "unknown_attack", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownJob):
		return "unknown_job", http.StatusNotFound
	}
	var conflict *conflictError
	var forbidden *forbiddenError
	var shed *shedError
	switch {
	case errors.As(err, &conflict):
		return "conflict", http.StatusConflict
	case errors.As(err, &forbidden):
		return "forbidden", http.StatusForbidden
	case errors.As(err, &shed) && shed.status == http.StatusTooManyRequests:
		return "over_quota", shed.status
	case errors.As(err, &shed):
		return "overloaded", shed.status
	}
	return "bad_request", http.StatusBadRequest
}

// WriteJSON emits one JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	_ = enc.Encode(v)
}

// WriteError emits the JSON error envelope for err. Shed errors carry
// the Retry-After hint the admission controller attached.
func WriteError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(shed.retryAfter/time.Second))))
	}
	code, status := errorCode(err)
	WriteCode(w, status, code, err.Error())
}

// WriteCode emits the error envelope with an explicit code.
func WriteCode(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, apiError{Code: code, Error: msg})
}

// Routes mounts the /v1 surface on mux. auth, when non-nil, wraps every
// handler except /v1/healthz.
func (f *Front) Routes(mux *http.ServeMux, auth func(http.HandlerFunc) http.HandlerFunc) {
	if auth == nil {
		auth = func(h http.HandlerFunc) http.HandlerFunc { return h }
	}
	mux.HandleFunc("POST /v1/jobs", auth(f.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", auth(f.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", auth(f.withJob(f.handleStatus)))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", auth(f.withJob(f.handleStream)))
	mux.HandleFunc("GET /v1/jobs/{id}/result", auth(f.withJob(f.handleResult)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", auth(f.withJob(f.handleCancel)))
	mux.HandleFunc("POST /v1/jobs/{id}/resume", auth(f.withJob(f.handleResume)))
	mux.HandleFunc("GET /v1/results/{key}", auth(f.handleResultByKey))
	mux.HandleFunc("GET /v1/catalog", auth(f.handleCatalog))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, f.b.Health())
	})
}

// withJob resolves the {id} path segment, answering 404 for an unknown
// job.
func (f *Front) withJob(h func(http.ResponseWriter, *http.Request, Handle)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := f.Lookup(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		h(w, r, j)
	}
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Sweep muontrap.Sweep `json:"sweep"`
	// Priority is the scheduling class: "interactive", "bulk", or empty
	// for the bulk default.
	Priority string `json:"priority,omitempty"`
	// Resume starts the job with checkpoint-resume enabled: if a mid-run
	// checkpoint matching a cell's exact identity is reachable, the run
	// continues from it instead of starting cold. The fleet coordinator
	// sets this when re-dispatching an interrupted cell to a new worker;
	// with no matching checkpoint it is a silent cold start.
	Resume bool `json:"resume,omitempty"`
}

func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, fmt.Errorf("decoding submit request: %w", err))
		return
	}
	rec, cached, err := f.Submit(r, req.Sweep, muontrap.Priority(req.Priority), req.Resume)
	if err != nil {
		WriteError(w, err)
		return
	}
	status := http.StatusAccepted
	if cached {
		// Served whole from the content-keyed result store: the job was
		// born done, nothing was queued.
		status = http.StatusOK
	}
	WriteJSON(w, status, rec)
}

func (f *Front) handleList(w http.ResponseWriter, r *http.Request) {
	hs := f.Jobs()
	jobs := make([]muontrap.Job, len(hs))
	for i, h := range hs {
		jobs[i] = h.base().Snapshot()
	}
	WriteJSON(w, http.StatusOK, map[string][]muontrap.Job{"jobs": jobs})
}

func (f *Front) handleStatus(w http.ResponseWriter, r *http.Request, h Handle) {
	WriteJSON(w, http.StatusOK, h.base().Snapshot())
}

func (f *Front) handleResult(w http.ResponseWriter, r *http.Request, h Handle) {
	snap := h.base().Snapshot()
	if snap.State != muontrap.JobDone {
		WriteError(w, Conflict("job %s is %s; the result exists only once it is done", snap.ID, snap.State))
		return
	}
	res, ok := f.doneResult(h.base())
	if !ok {
		WriteError(w, Conflict("job result for cache key %s is no longer stored", snap.CacheKey))
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (f *Front) handleCancel(w http.ResponseWriter, r *http.Request, h Handle) {
	rec, err := f.b.Cancel(r, h)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, rec)
}

func (f *Front) handleResume(w http.ResponseWriter, r *http.Request, h Handle) {
	rec, err := f.b.Resume(r, h)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, rec)
}

func (f *Front) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if res, ok := f.loadResult(key); ok {
		WriteJSON(w, http.StatusOK, res)
		return
	}
	// Not on disk — maybe completed in memory on an ephemeral daemon.
	for _, h := range f.Jobs() {
		j := h.base()
		j.Lock()
		res := j.result
		match := j.Rec.CacheKey == key && j.Rec.State == muontrap.JobDone && res != nil
		j.Unlock()
		if match {
			WriteJSON(w, http.StatusOK, res)
			return
		}
	}
	WriteCode(w, http.StatusNotFound, "unknown_result", fmt.Sprintf("no stored result for cache key %q", key))
}

func (f *Front) handleCatalog(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, muontrap.Catalog{
		Workloads: muontrap.Workloads(),
		Schemes:   muontrap.Schemes(),
		SchemeDoc: muontrap.SchemeDescriptions(),
		Figures:   muontrap.FigureIDs(),
		Attacks:   muontrap.AttackNames(),
	})
}
