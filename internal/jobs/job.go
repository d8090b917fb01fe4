package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/muontrap"
)

// Job is one submitted sweep as the front-end sees it: the published
// record, the stored-result fallback, and the SSE frame ring. Backends
// embed *Job in their own job type and guard their per-job fields with
// its mutex. Lock order: a backend's own mutex may be held while taking
// Job's, never the reverse.
type Job struct {
	sync.Mutex
	// Rec is the published record. Backends change non-terminal fields
	// (queued → running, progress) under the lock; terminal states are
	// published only through Front.Finish.
	Rec muontrap.Job
	// Incompat, when non-empty, names the identity-flag mismatch between
	// this journaled job and the daemon's configuration; resume is
	// refused (409) so a differently-configured attempt cannot store its
	// result under the job's old cache key.
	Incompat string

	// result is a done job's result when the store does not hold it
	// (ephemeral daemon, failed store write, born-done resubmission).
	result *muontrap.SweepResult

	// seq numbers published SSE frames; monotonic across attempts so
	// Last-Event-ID cursors stay unambiguous. ring retains the recent
	// frames; subs are the pull-model subscribers (see stream.go).
	seq  uint64
	ring *eventRing
	subs map[*subscriber]struct{}

	// journal serialises this job's journal writes (see Front.Persist).
	journal sync.Mutex
}

// Handle is a backend's job type: any struct embedding *Job.
type Handle interface{ base() *Job }

func (j *Job) base() *Job { return j }

func newJob(rec muontrap.Job) *Job {
	return &Job{
		Rec:  rec,
		ring: newEventRing(rec.Total),
		subs: make(map[*subscriber]struct{}),
	}
}

// Snapshot returns a copy of the published record.
func (j *Job) Snapshot() muontrap.Job {
	j.Lock()
	defer j.Unlock()
	return j.Rec
}

// PublishProgress mirrors one completed cell into the record and the
// frame ring, and wakes every subscriber. It never blocks on a consumer:
// subscribers pull frames from the ring at their own cursor. Callers
// must not hold the Job's lock.
func (j *Job) PublishProgress(p muontrap.Progress) {
	data, err := json.Marshal(p)
	if err != nil {
		return
	}
	j.Lock()
	j.Rec.Done = p.Done
	j.Rec.Total = p.Total
	j.seq++
	j.ring.append(streamEvent{id: j.seq, name: "progress", data: data})
	j.wakeLocked()
	j.Unlock()
}

// ClearFramesLocked drops the retained frames before a new attempt
// streams its own full sequence; ids keep counting. Callers hold the
// lock.
func (j *Job) ClearFramesLocked() { j.ring.clear() }

// Interrupt publishes the interrupted state without journaling it: a job
// cut off by shutdown keeps its journaled queued/running record, exactly
// as a kill would leave it, and the next daemon derives interrupted from
// that.
func (j *Job) Interrupt() {
	j.Lock()
	j.Rec.State = muontrap.JobInterrupted
	j.Rec.FinishedAt = now()
	j.wakeLocked()
	j.Unlock()
}

// CheckResumableLocked reports why the job cannot be re-queued, if it
// cannot. Callers hold the lock.
func (j *Job) CheckResumableLocked() error {
	switch j.Rec.State {
	case muontrap.JobInterrupted, muontrap.JobCancelled, muontrap.JobFailed:
	default:
		return Conflict("job %s is %s; only interrupted, cancelled or failed jobs can be resumed", j.Rec.ID, j.Rec.State)
	}
	if j.Incompat != "" {
		return Conflict("%s", j.Incompat)
	}
	return nil
}

func (j *Job) wakeLocked() {
	for sub := range j.subs {
		sub.poke()
	}
}

func now() string { return time.Now().UTC().Format(time.RFC3339) }

// Backend is what differs between the daemon and the fleet coordinator.
// The front-end calls it without holding any Job lock.
type Backend interface {
	// Submit wraps a new job in the backend's type, registers it with
	// Front.Add and — unless the job was born done from the result
	// store — admits and schedules it. r is the submitting request (nil
	// from Front.Submit callers outside HTTP); resume asks the first
	// attempt to continue from a matching mid-run checkpoint.
	Submit(r *http.Request, j *Job, resume bool) (Handle, error)
	// Cancel aborts a queued or running job; cancelling a cancelled job
	// is a no-op, any other state a conflict.
	Cancel(r *http.Request, h Handle) (muontrap.Job, error)
	// Resume re-queues an interrupted, cancelled or failed job with
	// checkpoint-resume enabled.
	Resume(r *http.Request, h Handle) (muontrap.Job, error)
	// Replay rebuilds one journaled job at startup from its record and
	// the backend's journal payload (nil when absent).
	Replay(j *Job, cells json.RawMessage) (Handle, error)
	// Cells is the backend's journal payload for a job; nil journals
	// none.
	Cells(h Handle) any
	// Health is the /v1/healthz payload.
	Health() any
}

// Config sets up a Front.
type Config struct {
	// Dir is the state root; the front keeps its journal under
	// Dir/<Name>/jobs and completed results under Dir/<Name>/sweeps.
	// Empty disables persistence.
	Dir  string
	Name string
	Identity
	Backend Backend
}

// Front is the job table and HTTP surface shared by both daemons.
type Front struct {
	dir string // Dir/<Name>; "" = ephemeral
	log string // stderr prefix
	id  Identity
	b   Backend

	subscribers atomic.Int64

	mu    sync.Mutex
	jobs  map[string]Handle
	order []string // submission order, for deterministic listing
}

// New builds a front-end; call Load to replay the journal.
func New(cfg Config) *Front {
	f := &Front{log: cfg.Name, id: cfg.Identity, b: cfg.Backend, jobs: make(map[string]Handle)}
	if cfg.Dir != "" {
		f.dir = filepath.Join(cfg.Dir, cfg.Name)
	}
	return f
}

// Add registers a job in submission order.
func (f *Front) Add(h Handle) {
	f.mu.Lock()
	id := h.base().Rec.ID
	f.jobs[id] = h
	f.order = append(f.order, id)
	f.mu.Unlock()
}

// Lookup finds a job by ID.
func (f *Front) Lookup(id string) (Handle, error) {
	f.mu.Lock()
	h, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", muontrap.ErrUnknownJob, id)
	}
	return h, nil
}

// Jobs lists every job in submission order.
func (f *Front) Jobs() []Handle {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Handle, len(f.order))
	for i, id := range f.order {
		out[i] = f.jobs[id]
	}
	return out
}

// Len counts known jobs.
func (f *Front) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.jobs)
}

// Subscribers counts connected SSE streams.
func (f *Front) Subscribers() int64 { return f.subscribers.Load() }

// Submit validates a sweep, keys it, and either completes it at once from
// the stored result or hands it to the backend. The bool reports a
// born-done result-store hit.
func (f *Front) Submit(r *http.Request, sw muontrap.Sweep, prio muontrap.Priority, resume bool) (muontrap.Job, bool, error) {
	_, cells, err := sw.Cells(f.id.Scale, f.id.MaxCycles)
	if err != nil {
		return muontrap.Job{}, false, err
	}
	prio, err = muontrap.ParsePriority(string(prio))
	if err != nil {
		return muontrap.Job{}, false, err
	}
	rec := muontrap.Job{
		ID:          newJobID(),
		State:       muontrap.JobQueued,
		Sweep:       sw,
		CacheKey:    f.id.Key(sw),
		Priority:    prio,
		Total:       len(cells),
		SubmittedAt: now(),
	}
	j := newJob(rec)
	// A stored result for this exact matrix + options + binary means the
	// job is already done: content keys make resubmission free.
	res, cached := f.storedResult(rec.CacheKey, rec.Total)
	if cached {
		j.Rec.State = muontrap.JobDone
		j.Rec.Done = rec.Total
		j.Rec.FinishedAt = rec.SubmittedAt
		j.result = res
	}
	h, err := f.b.Submit(r, j, resume)
	if err != nil {
		return muontrap.Job{}, false, err
	}
	f.Persist(h)
	return j.Snapshot(), cached, nil
}

// Finish makes a terminal outcome durable, then publishes it: store a
// done job's result, journal the terminal record, and only then expose
// it to readers and wake the stream subscribers. A client acting on the
// terminal state (restarting the daemon, resubmitting the sweep) finds
// both on disk. It returns the published record.
func (f *Front) Finish(h Handle, state muontrap.JobState, msg string, res *muontrap.SweepResult) muontrap.Job {
	j := h.base()
	j.journal.Lock()
	defer j.journal.Unlock()
	rec := j.Snapshot()
	rec.State, rec.Error, rec.FinishedAt = state, msg, now()
	if state == muontrap.JobDone {
		rec.Done = rec.Total
	}
	if hook := beforeDurable.Load(); hook != nil {
		(*hook)(rec.ID)
	}
	stored := state == muontrap.JobDone && f.storeResult(rec.CacheKey, res)
	f.writeJournal(h, rec)

	j.Lock()
	j.Rec.State, j.Rec.Error, j.Rec.FinishedAt, j.Rec.Done = rec.State, rec.Error, rec.FinishedAt, rec.Done
	if state == muontrap.JobDone && !stored {
		// The memory copy stays authoritative; otherwise fetches are
		// served from disk.
		j.result = res
	}
	// The ring keeps its frames: a subscriber mid-replay continues
	// through the real (completion-ordered) sequence it was reading.
	j.wakeLocked()
	j.Unlock()
	return rec
}

// beforeDurable, when set (tests only), runs as Finish starts a job's
// durable writes, before its terminal state is published.
var beforeDurable atomic.Pointer[func(jobID string)]

// doneResult returns a done job's result: the memory copy when the job
// holds one, otherwise the content-keyed store.
func (f *Front) doneResult(j *Job) (*muontrap.SweepResult, bool) {
	j.Lock()
	res, rec := j.result, j.Rec
	j.Unlock()
	if rec.State != muontrap.JobDone {
		return nil, false
	}
	if res != nil {
		return res, true
	}
	return f.storedResult(rec.CacheKey, rec.Total)
}
