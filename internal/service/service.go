package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/muontrap"
)

// Config sizes the experiment daemon. The zero value serves: an
// ephemeral (journal-less, cache-less) server at the library defaults,
// open (no auth, no quotas, unbounded queue) — exactly the pre-tenancy
// behavior.
type Config struct {
	// Dir is the service root: the figure result/snapshot cache the
	// runners use (it is passed to muontrap.WithCacheDir verbatim) plus
	// the service's own state under Dir/service — the job journal and the
	// completed sweep results keyed by cache key. Empty disables all
	// persistence: jobs die with the process and restart-resume is
	// unavailable.
	Dir string
	// Workers caps concurrent simulations per sweep (0 = GOMAXPROCS).
	Workers int
	// MaxJobs caps concurrently executing sweeps; further submissions
	// queue. Zero means 1: one sweep at a time, each using the full
	// worker pool.
	MaxJobs int
	// MaxQueue caps jobs waiting for a runner slot across all tenants.
	// Submissions beyond it are shed with 503 + Retry-After instead of
	// queueing unboundedly. Zero means unlimited (the historical
	// behavior).
	MaxQueue int
	// Tenants, when non-empty, switches the daemon to authenticated
	// multi-tenant mode: every endpoint except /v1/healthz requires a
	// configured API key, and per-tenant quotas bound queued and running
	// jobs (over-quota submissions shed with 429 + Retry-After). Empty
	// runs open, exactly as before tenancy existed.
	Tenants []Tenant
	// RetryAfter is the hint returned with shed (429/503) responses.
	// Zero defaults to one second.
	RetryAfter time.Duration
	// Scale and MaxCycles are the defaults applied when a submitted Sweep
	// leaves Scales / MaxCycles empty, exactly like the corresponding
	// Runner options (0 = library default).
	Scale     float64
	MaxCycles int
	// Warmup forwards muontrap.WithWarmup to every job's runner.
	Warmup int
	// CheckpointEvery forwards muontrap.WithCheckpointEvery: with Dir
	// set, every run drains and persists a mid-run checkpoint at this
	// cycle cadence, which is what makes an interrupted job resumable
	// from the middle of a simulation after a daemon restart — and what
	// makes priority preemption cheap: a preempted bulk job loses at
	// most one cadence interval of work. The cadence is part of run
	// identity, so it must match across restarts — the journal records
	// it and Resume refuses a mismatch.
	CheckpointEvery int
	// SnapStore, when non-nil, overrides where mid-run checkpoints are
	// persisted (muontrap.WithSnapshotStore). Fleet workers install a
	// checkpoint.Mirror here — local disk plus the coordinator's HTTP
	// store — so another machine can resume this daemon's interrupted
	// cells from their latest checkpoint. Nil keeps checkpoints in the
	// Dir-local store, exactly the single-machine behavior.
	SnapStore checkpoint.ContentStore
	// Metrics, when non-nil, registers the service's metric series on it
	// and mounts the registry at GET /metrics (unauthenticated, like
	// /v1/healthz — both are operational probes). Nil disables metrics
	// at zero per-request cost.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives a structured span per job lifecycle
	// edge (submit, queue, dispatch, preempt, requeue, resume, done,
	// failed, cancelled, interrupted). Nil disables tracing.
	Tracer *telemetry.Tracer
}

// job is one submitted sweep's live scheduling state around its
// front-end record. Lock order: the Server mutex may be held while
// taking the job's, never the reverse.
type job struct {
	*jobs.Job
	resume bool // run with WithResume (set by Resume and by preemption)
	// tenant is the submitting tenant's live quota state (nil on an open
	// daemon, or when a journaled job's tenant is no longer configured).
	// The pointer and its counters are guarded by Server.mu: a SIGHUP
	// tenant reload rebinds every job to the new table's entries.
	tenant *tenant
	// born is the admission instant (monotonic), for latency metrics.
	born time.Time

	cancel    context.CancelFunc
	cancelled bool // DELETE requested (distinguishes user cancel from server death)
	// preempt marks a running bulk attempt that the scheduler is driving
	// to a resumable boundary so an interactive job can take its slot.
	// The unwound attempt re-queues (resume=true) instead of finishing.
	preempt bool
}

// Server is the experiment service: the jobs front-end (HTTP surface,
// journal, result store, SSE) over a local backend that schedules sweeps
// by priority class on a bounded pool of muontrap.Runners with
// per-tenant admission control. It implements http.Handler.
type Server struct {
	cfg   Config
	front *jobs.Front
	mux   *http.ServeMux
	// tenants holds the live tenant table (nil = open mode). It is an
	// atomic pointer because SIGHUP hot-reload swaps it while request
	// handlers authenticate against it lock-free; the table's quota
	// counters are still guarded by mu.
	tenants atomic.Pointer[tenantTable]
	met     *serviceMetrics   // nil = metrics off
	trace   *telemetry.Tracer // nil = tracing off

	ctx  context.Context // cancelled by Close; job contexts derive from it
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	pending [2][]*job // FIFO dispatch queues: [0] interactive, [1] bulk
	running map[*job]struct{}
	started []*job // running jobs in dispatch order (preemption picks the newest bulk)

	shedQuota    uint64 // submissions shed 429 (per-tenant quota)
	shedCapacity uint64 // submissions shed 503 (whole-daemon queue bound)
}

// New builds a Server and, when cfg.Dir is set, loads the job journal:
// jobs the previous process left queued or running are surfaced as
// "interrupted" (resumable), completed jobs keep serving their results.
func New(cfg Config) (*Server, error) {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	tbl, err := newTenantTable(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ctx:     ctx,
		stop:    stop,
		trace:   cfg.Tracer,
		running: make(map[*job]struct{}),
	}
	s.tenants.Store(tbl)
	s.front = jobs.New(jobs.Config{
		Dir:  cfg.Dir,
		Name: "service",
		Identity: jobs.Identity{
			Scale: cfg.Scale, MaxCycles: cfg.MaxCycles,
			Warmup: cfg.Warmup, CheckpointEvery: cfg.CheckpointEvery,
		},
		Backend: s,
	})
	if cfg.Metrics != nil {
		s.met = newServiceMetrics(cfg.Metrics, s)
	}
	s.mux = http.NewServeMux()
	// Everything except the health probe sits behind tenant auth (a
	// no-op wrapper on an open daemon).
	s.front.Routes(s.mux, s.auth)
	if cfg.Metrics != nil {
		// Like healthz, the scrape endpoint is an operational probe:
		// never authenticated, and it names no tenant data beyond the
		// tenant label on latency series.
		s.mux.Handle("GET /metrics", cfg.Metrics)
	}
	if err := s.front.Load(); err != nil {
		stop()
		return nil, err
	}
	return s, nil
}

// ServeHTTP makes the Server mountable directly into any http.Server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// newJob wraps a front-end record in its scheduling state.
func (s *Server) newJob(base *jobs.Job) *job {
	return &job{
		Job:    base,
		born:   time.Now(),
		tenant: s.tenants.Load().owner(base.Rec.Tenant),
	}
}

// Close cancels every in-flight job context and waits for job goroutines
// to unwind. It deliberately does NOT journal a terminal state for
// running jobs: like a kill, it leaves them recorded as queued/running so
// the next daemon sees them as interrupted and can resume them.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// Shutdown cancels every in-flight job context and waits for the drain,
// bounded by ctx. If ctx expires first, the jobs still holding runner
// slots are journaled as interrupted — so the next daemon can resume
// them even though this one is abandoning their goroutines — and their
// IDs are returned (sorted) for the caller to log. A nil return means
// the drain completed.
func (s *Server) Shutdown(ctx context.Context) []string {
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	stuck := make([]*job, 0, len(s.running))
	for j := range s.running {
		stuck = append(stuck, j)
	}
	s.mu.Unlock()
	var abandoned []string
	for _, j := range stuck {
		if rec := j.Snapshot(); !rec.State.Terminal() {
			s.front.Finish(j, muontrap.JobInterrupted, "", nil)
			abandoned = append(abandoned, rec.ID)
		}
	}
	sort.Strings(abandoned)
	return abandoned
}

// Stats is the readiness view behind /v1/healthz: scheduler load and
// load-shedding counters.
type Stats struct {
	Jobs       int `json:"jobs"`        // jobs known (all states)
	QueueDepth int `json:"queue_depth"` // jobs waiting for a runner slot
	Running    int `json:"running"`     // jobs holding a runner slot
	MaxJobs    int `json:"max_jobs"`
	MaxQueue   int `json:"max_queue"` // 0 = unbounded
	// Shed counters, monotonic over the daemon's life.
	ShedOverQuota    uint64 `json:"shed_over_quota"`    // 429: per-tenant quota
	ShedOverCapacity uint64 `json:"shed_over_capacity"` // 503: whole-daemon queue bound
	Tenants          int    `json:"tenants"`            // configured tenants (0 = open)
}

// Stats snapshots the scheduler's readiness counters.
func (s *Server) Stats() Stats {
	n := s.front.Len()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Jobs:             n,
		QueueDepth:       len(s.pending[0]) + len(s.pending[1]),
		Running:          len(s.running),
		MaxJobs:          s.cfg.MaxJobs,
		MaxQueue:         s.cfg.MaxQueue,
		ShedOverQuota:    s.shedQuota,
		ShedOverCapacity: s.shedCapacity,
	}
	if tbl := s.tenants.Load(); tbl != nil {
		st.Tenants = len(tbl.byName)
	}
	return st
}

// healthResponse is the /v1/healthz payload: liveness plus the
// scheduler's readiness counters (embedded flat).
type healthResponse struct {
	Status string `json:"status"`
	Stats
}

// Health implements jobs.Backend.
func (s *Server) Health() any { return healthResponse{Status: "ok", Stats: s.Stats()} }

// InterruptedJobs lists the IDs of jobs loaded from the journal in an
// interrupted state, in journal order. The daemon's -auto-resume flag
// feeds these straight back into the queue.
func (s *Server) InterruptedJobs() []string {
	var ids []string
	for _, h := range s.front.Jobs() {
		if rec := h.(*job).Snapshot(); rec.State == muontrap.JobInterrupted {
			ids = append(ids, rec.ID)
		}
	}
	return ids
}

// prioIndex maps a priority class to its dispatch queue.
func prioIndex(p muontrap.Priority) int {
	if p == muontrap.PriorityInteractive {
		return 0
	}
	return 1
}

// Submit implements jobs.Backend: a born-done job is only registered;
// any other is admitted against the queue bound and the submitting
// tenant's quota, and scheduled.
func (s *Server) Submit(r *http.Request, base *jobs.Job, resume bool) (jobs.Handle, error) {
	tn := requestTenant(r)
	if tn != nil {
		base.Rec.Tenant = tn.Name
	}
	j := &job{Job: base, tenant: tn, resume: resume, born: time.Now()}
	if base.Rec.State == muontrap.JobDone {
		// A born-done job consumes neither queue depth nor quota.
		s.front.Add(j)
		s.met.jobSubmitted(true)
		s.met.observeJobSeconds(base.Rec.Tenant, sinceSeconds(j.born))
		s.span("submit", j, 0, "cache-hit")
		s.span("done", j, sinceSeconds(j.born), "served from result store")
		return j, nil
	}
	s.mu.Lock()
	if err := s.admitLocked(tn); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if tn != nil {
		tn.queued++
	}
	s.front.Add(j)
	class := prioIndex(base.Rec.Priority)
	s.pending[class] = append(s.pending[class], j)
	s.span("submit", j, 0, string(base.Rec.Priority))
	s.span("queue", j, 0, "")
	s.dispatchLocked()
	s.mu.Unlock()
	s.met.jobSubmitted(false)
	return j, nil
}

// admitLocked applies admission control for one enqueue: the global
// queue bound first (the daemon protecting itself), then the tenant's
// queued quota (tenants protecting each other).
func (s *Server) admitLocked(tn *tenant) error {
	if waiting := len(s.pending[0]) + len(s.pending[1]); s.cfg.MaxQueue > 0 && waiting >= s.cfg.MaxQueue {
		s.shedCapacity++
		return jobs.Shed(http.StatusServiceUnavailable, s.cfg.RetryAfter,
			"submission queue is full (%d waiting, bound %d); retry later", waiting, s.cfg.MaxQueue)
	}
	if tn != nil && tn.MaxQueued > 0 && tn.queued >= tn.MaxQueued {
		s.shedQuota++
		return jobs.Shed(http.StatusTooManyRequests, s.cfg.RetryAfter,
			"tenant %s has %d jobs queued (quota %d); retry later", tn.Name, tn.queued, tn.MaxQueued)
	}
	return nil
}

// tenantCanRunLocked reports whether dispatching j now would respect its
// tenant's running quota.
func (s *Server) tenantCanRunLocked(j *job) bool {
	tn := j.tenant
	return tn == nil || tn.MaxRunning == 0 || tn.running < tn.MaxRunning
}

// popLocked removes and returns the next dispatchable job: interactive
// before bulk, FIFO within a class, skipping (not shedding) jobs whose
// tenant is at its running quota. Nil when nothing is dispatchable.
func (s *Server) popLocked() *job {
	for class := range s.pending {
		for i, j := range s.pending[class] {
			if s.tenantCanRunLocked(j) {
				s.pending[class] = append(s.pending[class][:i:i], s.pending[class][i+1:]...)
				return j
			}
		}
	}
	return nil
}

// dispatchLocked fills free runner slots from the priority queues, then
// — when interactive work is still waiting with every slot busy —
// preempts bulk jobs to free slots for it. Callers hold s.mu.
func (s *Server) dispatchLocked() {
	if s.ctx.Err() != nil {
		return // shutting down: strand queued jobs for the journal
	}
	for len(s.running) < s.cfg.MaxJobs {
		j := s.popLocked()
		if j == nil {
			break
		}
		s.running[j] = struct{}{}
		s.started = append(s.started, j)
		if j.tenant != nil {
			j.tenant.queued--
			j.tenant.running++
		}
		s.startLocked(j)
	}
	s.preemptLocked()
}

// preemptLocked drives running bulk jobs to a resumable boundary when
// interactive jobs are waiting and every slot is busy. The victim is the
// most recently dispatched bulk job (least sunk work beyond its last
// checkpoint); its context is cancelled, and finish re-queues it with
// resume enabled instead of recording a terminal state.
func (s *Server) preemptLocked() {
	if len(s.running) < s.cfg.MaxJobs {
		return // a slot is free; anything still queued is tenant-capped
	}
	need := 0
	for _, j := range s.pending[0] {
		if s.tenantCanRunLocked(j) {
			need++
		}
	}
	if need == 0 {
		return
	}
	// Slots already unwinding toward a free state count against need.
	for j := range s.running {
		j.Lock()
		if j.preempt {
			need--
		}
		j.Unlock()
	}
	for i := len(s.started) - 1; i >= 0 && need > 0; i-- {
		j := s.started[i]
		j.Lock()
		if j.Rec.Priority != muontrap.PriorityInteractive && !j.preempt && !j.cancelled && j.cancel != nil {
			j.preempt = true
			j.cancel()
			need--
			s.met.jobPreempted()
			s.span("preempt", j, 0, "unwinding to checkpoint for interactive work")
		}
		j.Unlock()
	}
}

// startLocked hands a dispatched job its context and launches the run
// goroutine. Callers hold s.mu.
func (s *Server) startLocked(j *job) {
	ctx, cancel := context.WithCancel(s.ctx)
	j.Lock()
	j.cancel = cancel
	if j.cancelled {
		// A DELETE raced ahead of this attempt getting its cancel func
		// (or hit the spent func of a previous attempt). Honor it now:
		// pre-cancel the fresh context so the goroutine unwinds into the
		// cancelled state instead of silently running to completion.
		cancel()
	}
	resume := j.resume
	sw := j.Rec.Sweep
	s.span("dispatch", j, 0, "")
	j.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		if !j.setRunning() {
			// Reached a terminal state between dispatch and start.
			s.releaseSlot(j)
			return
		}
		s.front.Persist(j)
		r := muontrap.NewRunner(
			muontrap.WithWorkers(s.cfg.Workers),
			muontrap.WithCacheDir(s.cfg.Dir),
			muontrap.WithWarmup(s.cfg.Warmup),
			muontrap.WithCheckpointEvery(s.cfg.CheckpointEvery),
			muontrap.WithScale(s.cfg.Scale),
			muontrap.WithMaxCycles(s.cfg.MaxCycles),
			muontrap.WithResume(resume),
			muontrap.WithSnapshotStore(s.cfg.SnapStore),
			muontrap.WithProgress(j.PublishProgress),
		)
		res, err := r.Sweep(ctx, sw)
		s.finish(j, res, err)
	}()
}

// setRunning transitions queued → running; it refuses (false) if the job
// reached a terminal state first (e.g. cancelled while queued).
func (j *job) setRunning() bool {
	j.Lock()
	defer j.Unlock()
	if j.Rec.State != muontrap.JobQueued {
		return false
	}
	j.Rec.State = muontrap.JobRunning
	return true
}

// releaseSlot returns a job's runner slot to the scheduler and
// re-dispatches.
func (s *Server) releaseSlot(j *job) {
	s.mu.Lock()
	s.releaseSlotLocked(j)
	s.dispatchLocked()
	s.mu.Unlock()
}

// releaseSlotLocked removes j from the running set and its tenant's
// running count. Callers hold s.mu.
func (s *Server) releaseSlotLocked(j *job) {
	if _, held := s.running[j]; !held {
		return
	}
	delete(s.running, j)
	for i, r := range s.started {
		if r == j {
			s.started = append(s.started[:i:i], s.started[i+1:]...)
			break
		}
	}
	if j.tenant != nil {
		j.tenant.running--
	}
}

// finish records a sweep outcome — except for a preempted attempt, which
// is not an outcome at all: the job re-enters the queue as resumable,
// subscribers stay attached, and the resumed attempt streams its cells
// under fresh frame ids. Interruption by server shutdown is published
// but not journaled: that job keeps its journaled queued/running state,
// exactly as if the process had been SIGKILLed, so the next daemon marks
// it interrupted and can resume it. Every real outcome — done, failed,
// or a user cancellation that unwound while the daemon was going down —
// goes through the front-end's durable-then-publish Finish, so a restart
// never resurrects work that genuinely ended.
func (s *Server) finish(j *job, res *muontrap.SweepResult, err error) {
	serverDying := s.ctx.Err() != nil

	j.Lock()
	if err != nil && j.preempt && !j.cancelled && !serverDying {
		// Preempted for an interactive job. The attempt unwound at its
		// latest checkpointable boundary; re-queue it resumable, in its
		// own priority class, behind work already waiting.
		j.preempt = false
		j.resume = true
		j.cancel = nil
		j.Rec.State = muontrap.JobQueued
		j.Rec.Done = 0
		j.ClearFramesLocked()
		class := prioIndex(j.Rec.Priority)
		s.span("requeue", j, 0, "preempted attempt re-queued resumable")
		j.Unlock()
		s.front.Persist(j)
		s.mu.Lock()
		s.releaseSlotLocked(j)
		if j.tenant != nil {
			j.tenant.queued++
		}
		s.pending[class] = append(s.pending[class], j)
		s.dispatchLocked()
		s.mu.Unlock()
		return
	}
	j.preempt = false
	cancelled := j.cancelled
	j.Unlock()

	var rec muontrap.Job
	switch {
	case err == nil:
		rec = s.front.Finish(j, muontrap.JobDone, "", res)
	case cancelled:
		rec = s.front.Finish(j, muontrap.JobCancelled, "", nil)
	case serverDying:
		j.Interrupt()
		rec = j.Snapshot()
	default:
		rec = s.front.Finish(j, muontrap.JobFailed, err.Error(), nil)
	}
	elapsed := sinceSeconds(j.born)
	s.span(string(rec.State), j, elapsed, rec.Error)
	s.met.observeJobSeconds(rec.Tenant, elapsed)
	s.releaseSlot(j)
}

// Cancel implements jobs.Backend: it aborts a queued or running job. A
// job still waiting in the dispatch queue — one that never held a runner
// slot — transitions queued → cancelled synchronously, consuming
// nothing; a running job's state flips once the simulation has actually
// unwound (promptly: the cycle loop polls its context every 64 simulated
// cycles), so the returned snapshot may still say running.
func (s *Server) Cancel(r *http.Request, h jobs.Handle) (muontrap.Job, error) {
	j := h.(*job)
	if err := s.authorize(r, j); err != nil {
		return muontrap.Job{}, err
	}
	s.mu.Lock()
	j.Lock()
	switch j.Rec.State {
	case muontrap.JobQueued:
		if s.removePendingLocked(j) {
			// Never dispatched: cancel is synchronous and slot-free.
			j.cancelled = true
			if j.tenant != nil {
				j.tenant.queued--
			}
			j.Unlock()
			s.dispatchLocked() // a preemption may now be unnecessary; harmless otherwise
			s.mu.Unlock()
			rec := s.front.Finish(j, muontrap.JobCancelled, "", nil)
			s.span("cancelled", j, sinceSeconds(j.born), "cancelled while queued")
			s.met.observeJobSeconds(rec.Tenant, sinceSeconds(j.born))
			return rec, nil
		}
		// Dispatched but not yet running: flag + cancel, the attempt
		// unwinds into cancelled through finish.
		fallthrough
	case muontrap.JobRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	case muontrap.JobCancelled: // idempotent
	default:
		err := jobs.Conflict("job %s is %s and cannot be cancelled", j.Rec.ID, j.Rec.State)
		j.Unlock()
		s.mu.Unlock()
		return muontrap.Job{}, err
	}
	rec := j.Rec
	j.Unlock()
	s.mu.Unlock()
	return rec, nil
}

// removePendingLocked drops j from whichever dispatch queue holds it,
// reporting whether it was found. Callers hold s.mu.
func (s *Server) removePendingLocked(j *job) bool {
	for class := range s.pending {
		for i, p := range s.pending[class] {
			if p == j {
				s.pending[class] = append(s.pending[class][:i:i], s.pending[class][i+1:]...)
				return true
			}
		}
	}
	return false
}

// Resume implements jobs.Backend for POST /v1/jobs/{id}/resume.
func (s *Server) Resume(r *http.Request, h jobs.Handle) (muontrap.Job, error) {
	j := h.(*job)
	if err := s.authorize(r, j); err != nil {
		return muontrap.Job{}, err
	}
	return s.resume(j)
}

// ResumeJob re-enters a terminal, non-done job into the queue with the
// checkpoint-resume path enabled (the daemon's -auto-resume).
func (s *Server) ResumeJob(id string) (muontrap.Job, error) {
	h, err := s.front.Lookup(id)
	if err != nil {
		return muontrap.Job{}, err
	}
	return s.resume(h.(*job))
}

// resume re-queues j against the same admission control as a fresh
// submission (the job's own tenant pays the quota).
func (s *Server) resume(j *job) (muontrap.Job, error) {
	s.mu.Lock()
	j.Lock()
	err := j.CheckResumableLocked()
	if err == nil {
		err = s.admitLocked(j.tenant)
	}
	if err != nil {
		j.Unlock()
		s.mu.Unlock()
		return muontrap.Job{}, err
	}
	j.Rec.State = muontrap.JobQueued
	j.Rec.Error = ""
	j.Rec.FinishedAt = ""
	j.Rec.Done = 0
	j.resume = true
	j.cancelled = false
	j.preempt = false
	j.cancel = nil
	j.ClearFramesLocked() // the resumed attempt streams its own full sequence
	rec := j.Rec
	class := prioIndex(j.Rec.Priority)
	s.span("resume", j, 0, "")
	s.span("queue", j, 0, "")
	j.Unlock()
	if j.tenant != nil {
		j.tenant.queued++
	}
	s.pending[class] = append(s.pending[class], j)
	s.dispatchLocked()
	s.mu.Unlock()
	s.front.Persist(j)
	s.met.jobResumed()
	return rec, nil
}

// Replay implements jobs.Backend. Jobs the dead process left queued or
// running become interrupted — the crash window restart-resume exists
// for — and jobs an expired drain timeout journaled as interrupted stay
// so.
func (s *Server) Replay(base *jobs.Job, _ json.RawMessage) (jobs.Handle, error) {
	switch base.Rec.State {
	case muontrap.JobQueued, muontrap.JobRunning:
		// The interrupted state is normally derived, never journaled: the
		// journal keeps saying queued/running (what death left behind),
		// and every restart re-derives the same picture.
		base.Rec.State = muontrap.JobInterrupted
		base.Rec.Done = 0
	case muontrap.JobInterrupted:
		base.Rec.Done = 0
	}
	return s.newJob(base), nil
}

// Cells implements jobs.Backend: the daemon journals no shard map.
func (s *Server) Cells(jobs.Handle) any { return nil }
