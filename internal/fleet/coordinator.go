package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/muontrap"
	"repro/muontrap/client"
)

// Config sizes a fleet coordinator. Scale, MaxCycles, Warmup and
// CheckpointEvery are the run-identity flags and MUST match every
// worker's configuration: workers key results and checkpoints by them,
// so a mismatched fleet would compute under one identity and journal
// under another.
type Config struct {
	// Dir is the coordinator's state root: the job journal under
	// Dir/fleet/jobs, completed sweep results under Dir/fleet/sweeps, and
	// the shared checkpoint content store under Dir/fleet/store. Empty
	// disables persistence (and with it coordinator-restart resume and
	// checkpoint migration — workers have nowhere shared to mirror to).
	Dir string
	// Scale, MaxCycles, Warmup, CheckpointEvery mirror the corresponding
	// worker daemon flags (0 = library default). They enter every cache
	// key through the same jobs.Identity a worker daemon keys by.
	Scale           float64
	MaxCycles       int
	Warmup          int
	CheckpointEvery int
	// HeartbeatTimeout marks a worker dead when no heartbeat arrives
	// within it (0 = 5s). Dead workers' in-flight cells re-dispatch with
	// checkpoint-resume enabled.
	HeartbeatTimeout time.Duration
	// StealAfter enables straggler stealing: a cell in flight on exactly
	// one worker for longer than this is speculatively dispatched to a
	// second, idle worker; the first completion wins the merge. Zero
	// disables stealing.
	StealAfter time.Duration
	// PerWorker caps concurrently dispatched cells per worker (0 = 1,
	// matching a default worker's one-sweep-at-a-time runner pool).
	PerWorker int
	// Metrics, when non-nil, registers the fleet's metric series on it
	// and mounts the registry at GET /metrics.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives a structured span per cell
	// lifecycle edge (submit, queue, dispatch, steal, requeue, merge,
	// duplicate, worker_dead, done, failed).
	Tracer *telemetry.Tracer
}

// Fixed scheduling parameters.
const (
	// tick bounds how long scheduling work (dead-worker sweeps, steals)
	// can sit waiting when no completion wakes the scheduler.
	tick = 100 * time.Millisecond
	// workerRetries is the retry budget of the per-worker HTTP clients.
	workerRetries = 2
	// workerFailLimit marks a worker dead after this many consecutive
	// failed attempts against it — the fast-path death signal for a
	// worker whose process died but whose heartbeat entry has not yet
	// timed out, and for one whose agent outlived its daemon.
	workerFailLimit = 3
)

// Stats is the coordinator's observability surface: the /v1/healthz
// payload, and the source the /metrics worker/scheduler families read
// at scrape time — both views come from this one snapshot.
type Stats struct {
	Workers int `json:"workers"` // registered and alive
	// SuspectWorkers counts alive workers whose last heartbeat is older
	// than half the timeout — still served, but next in line to be
	// declared dead if silence continues.
	SuspectWorkers int    `json:"suspect_workers"`
	DeadWorkersNow int    `json:"dead_workers_now"` // currently registered and dead
	DeadWorkers    uint64 `json:"dead_workers"`     // marked dead over the coordinator's life
	Jobs           int    `json:"jobs"`             // jobs known, all states
	CellsPending   int    `json:"cells_pending"`    // cells not yet merged
	Dispatched     uint64 `json:"dispatched"`       // attempts started
	Migrations     uint64 `json:"migrations"`       // cells re-queued after a worker failure
	Steals         uint64 `json:"steals"`           // speculative straggler dispatches
	Duplicates     uint64 `json:"duplicates"`       // completions discarded at merge (first writer won)
}

// worker is one registered fleet member.
type worker struct {
	id       string
	name     string
	base     string
	client   *client.Client
	lastSeen time.Time
	dead     bool
	inflight int
	fails    int // consecutive failed attempts; reset on success
}

// attempt is one dispatch of one cell to one worker.
type attempt struct {
	w        *worker
	c        *cell
	resume   bool
	ctx      context.Context
	cancel   context.CancelFunc
	remoteID string // worker-side job ID, once known
	closed   bool   // guarded by Coordinator.mu; true once settled
	started  time.Time
}

// cell is one resolved (workload, scheme, scale) unit of a sweep: the
// unit of dispatch, migration, stealing and merge.
type cell struct {
	job      *fleetJob
	key      string         // content cache key — the merge identity
	sweep    muontrap.Sweep // the single-cell sub-sweep workers run
	indexes  []int          // declaration positions this cell fills
	resume   bool           // next dispatch passes resume (migration path)
	done     bool
	attempts map[*attempt]struct{} // open attempts
}

// fleetJob is one submitted sweep and its shard map, around its
// front-end record.
type fleetJob struct {
	*jobs.Job
	cells   []*cell
	results []*muontrap.RunResult // per declaration index
	// active marks a job whose cells may dispatch: queued or running,
	// journaled under this coordinator's identity, and not yet decided.
	// Guarded by Coordinator.mu; it turns false the moment an outcome is
	// decided, before the front-end makes that outcome durable.
	active bool
}

// Coordinator shards sweeps across registered workers: the jobs
// front-end's fleet backend. It implements http.Handler: the /v1/jobs
// surface (the daemon's own code, so muontrap/client drives both
// identically) plus the /fleet/v1/* control plane (register, heartbeat,
// workers, and the shared checkpoint content store).
type Coordinator struct {
	cfg   Config
	id    jobs.Identity
	front *jobs.Front
	mux   *http.ServeMux
	store *checkpoint.Store // shared checkpoint store (nil when Dir == "")
	met   *fleetMetrics     // nil = metrics off
	trace *telemetry.Tracer // nil = tracing off

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
	wake chan struct{}

	mu      sync.Mutex
	workers map[string]*worker
	jobs    []*fleetJob // submission order
	stats   Stats
}

// New builds a Coordinator and, when cfg.Dir is set, opens the shared
// checkpoint store and replays the job journal: done cells stay done,
// pending cells of unfinished jobs re-enter the dispatch pool with
// checkpoint-resume enabled.
func New(cfg Config) (*Coordinator, error) {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.PerWorker <= 0 {
		cfg.PerWorker = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	co := &Coordinator{
		cfg:     cfg,
		trace:   cfg.Tracer,
		ctx:     ctx,
		stop:    stop,
		wake:    make(chan struct{}, 1),
		workers: make(map[string]*worker),
		id: jobs.Identity{
			Scale: cfg.Scale, MaxCycles: cfg.MaxCycles,
			Warmup: cfg.Warmup, CheckpointEvery: cfg.CheckpointEvery,
		},
	}
	co.front = jobs.New(jobs.Config{Dir: cfg.Dir, Name: "fleet", Identity: co.id, Backend: co})
	if cfg.Metrics != nil {
		co.met = newFleetMetrics(cfg.Metrics, co)
	}
	if cfg.Dir != "" {
		st, err := checkpoint.NewStore(filepath.Join(cfg.Dir, "fleet", "store"))
		if err != nil {
			stop()
			return nil, fmt.Errorf("fleet: checkpoint store: %w", err)
		}
		co.store = st
	}
	co.routes()
	if err := co.front.Load(); err != nil {
		stop()
		return nil, err
	}
	co.wg.Add(1)
	go co.loop()
	return co, nil
}

// StorePath returns the URL path prefix the shared checkpoint store is
// served under; workers point their checkpoint.HTTPStore at
// coordinatorBase + StorePath.
const StorePath = "/fleet/v1/store"

// Close stops the scheduler and every attempt and waits for them.
// Like a worker daemon's kill, it journals nothing extra: the shard map
// on disk already records exactly which cells finished, which is all a
// restarted coordinator needs.
func (co *Coordinator) Close() {
	co.stop()
	co.mu.Lock()
	for _, j := range co.jobs {
		for _, c := range j.cells {
			for a := range c.attempts {
				a.cancel()
			}
		}
	}
	co.mu.Unlock()
	co.wg.Wait()
}

// Stats snapshots the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := co.stats
	now := time.Now()
	for _, w := range co.workers {
		if w.dead {
			st.DeadWorkersNow++
			continue
		}
		st.Workers++
		if now.Sub(w.lastSeen) > co.cfg.HeartbeatTimeout/2 {
			st.SuspectWorkers++
		}
	}
	st.Jobs = len(co.jobs)
	for _, j := range co.jobs {
		for _, c := range j.cells {
			if !c.done && j.active {
				st.CellsPending++
			}
		}
	}
	return st
}

// kick wakes the scheduler without blocking.
func (co *Coordinator) kick() {
	select {
	case co.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler: a single goroutine that reacts to completions
// (kick) and to time (tick: heartbeat expiry, straggler age).
func (co *Coordinator) loop() {
	defer co.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-co.wake:
		case <-t.C:
		}
		co.schedule()
	}
}

// schedule is one scheduler pass: expire dead workers, dispatch pending
// cells, steal from stragglers.
func (co *Coordinator) schedule() {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	for _, w := range co.workers {
		if !w.dead && now.Sub(w.lastSeen) > co.cfg.HeartbeatTimeout {
			co.markWorkerDeadLocked(w)
		}
	}
	co.dispatchLocked(now)
	co.stealLocked(now)
}

// markWorkerDeadLocked retires a worker: its open attempts are settled
// and their unfinished cells re-enter the pool with resume enabled, so
// the next dispatch continues from the dead machine's last mirrored
// checkpoint. Callers hold co.mu.
func (co *Coordinator) markWorkerDeadLocked(w *worker) {
	if w.dead {
		return
	}
	w.dead = true
	co.stats.DeadWorkers++
	co.span(telemetry.Span{Event: "worker_dead", Worker: w.id, Detail: w.name})
	for _, j := range co.jobs {
		for _, c := range j.cells {
			for a := range c.attempts {
				if a.w == w {
					co.closeAttemptLocked(a)
					co.requeueCellLocked(c)
				}
			}
		}
	}
}

// closeAttemptLocked settles an attempt: removed from its cell, its
// worker's slot freed, its stream cancelled. Idempotent. Callers hold
// co.mu.
func (co *Coordinator) closeAttemptLocked(a *attempt) {
	if a.closed {
		return
	}
	a.closed = true
	delete(a.c.attempts, a)
	a.w.inflight--
	a.cancel()
}

// requeueCellLocked returns an unfinished cell with no open attempts to
// the dispatch pool, flagged to resume from its latest mirrored
// checkpoint. Callers hold co.mu.
func (co *Coordinator) requeueCellLocked(c *cell) {
	if c.done || len(c.attempts) > 0 || !c.job.active {
		return
	}
	c.resume = true
	co.stats.Migrations++
	co.span(telemetry.Span{
		Event: "requeue", Job: c.job.Rec.ID, Cell: cellLabel(c),
		Detail: "re-queued resumable after worker failure",
	})
}

// dispatchLocked hands every pending cell to the least-loaded alive
// worker with capacity, interactive jobs first. Callers hold co.mu.
func (co *Coordinator) dispatchLocked(now time.Time) {
	for _, class := range []muontrap.Priority{muontrap.PriorityInteractive, muontrap.PriorityBulk} {
		for _, j := range co.jobs {
			if !j.active || j.Rec.Priority != class {
				continue
			}
			for _, c := range j.cells {
				if c.done || len(c.attempts) > 0 {
					continue
				}
				w := co.pickWorkerLocked(nil)
				if w == nil {
					return // no capacity anywhere; later cells need none either
				}
				co.startAttemptLocked(c, w, now)
			}
		}
	}
}

// stealLocked speculatively re-dispatches straggling cells: one open
// attempt, older than StealAfter, with an idle worker available that is
// not the one already running it. First completion wins the merge.
// Callers hold co.mu.
func (co *Coordinator) stealLocked(now time.Time) {
	if co.cfg.StealAfter <= 0 {
		return
	}
	for _, j := range co.jobs {
		if !j.active {
			continue
		}
		for _, c := range j.cells {
			if c.done || len(c.attempts) != 1 {
				continue
			}
			var cur *attempt
			for a := range c.attempts {
				cur = a
			}
			if now.Sub(cur.started) < co.cfg.StealAfter {
				continue
			}
			w := co.pickWorkerLocked(cur.w)
			if w == nil || w.inflight > 0 {
				continue // steal only onto an idle machine
			}
			co.stats.Steals++
			co.span(telemetry.Span{
				Event: "steal", Job: j.Rec.ID, Cell: cellLabel(c), Worker: w.id,
				Seconds: now.Sub(cur.started).Seconds(),
				Detail:  "straggling on " + cur.w.id,
			})
			co.startAttemptLocked(c, w, now)
		}
	}
}

// pickWorkerLocked returns the alive worker with the most free capacity
// (ties broken by id for determinism), excluding not. Nil when no alive
// worker has capacity. Callers hold co.mu.
func (co *Coordinator) pickWorkerLocked(not *worker) *worker {
	var best *worker
	for _, w := range co.workers {
		if w.dead || w == not || w.inflight >= co.cfg.PerWorker {
			continue
		}
		if best == nil || w.inflight < best.inflight || (w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	return best
}

// startAttemptLocked dispatches one cell to one worker. Callers hold
// co.mu.
func (co *Coordinator) startAttemptLocked(c *cell, w *worker, now time.Time) {
	ctx, cancel := context.WithCancel(co.ctx)
	a := &attempt{
		w: w, c: c, resume: c.resume,
		ctx: ctx, cancel: cancel, started: now,
	}
	c.attempts[a] = struct{}{}
	w.inflight++
	co.stats.Dispatched++
	detail := ""
	if a.resume {
		detail = "resume"
	}
	co.span(telemetry.Span{
		Event: "dispatch", Job: c.job.Rec.ID, Cell: cellLabel(c),
		Worker: w.id, Detail: detail,
	})
	c.job.Lock()
	if c.job.Rec.State == muontrap.JobQueued {
		c.job.Rec.State = muontrap.JobRunning
	}
	c.job.Unlock()
	co.wg.Add(1)
	go co.runAttempt(a)
}

// runAttempt drives one dispatch to its outcome the way client.Sweep
// does: submit the single-cell sweep to the worker (with resume when the
// cell migrated), follow the remote job's stream to its terminal state,
// fetch the result, and settle.
func (co *Coordinator) runAttempt(a *attempt) {
	defer co.wg.Done()
	defer a.cancel()
	var opts []client.SubmitOption
	if a.resume {
		opts = append(opts, client.WithResume())
	}
	if a.c.job.Rec.Priority == muontrap.PriorityInteractive {
		opts = append(opts, client.WithPriority(muontrap.PriorityInteractive))
	}
	job, err := a.w.client.Submit(a.ctx, a.c.sweep, opts...)
	if err == nil {
		co.mu.Lock()
		a.remoteID = job.ID
		co.mu.Unlock()
		job, err = a.w.client.Stream(a.ctx, job.ID, nil)
	}
	if err != nil {
		co.attemptFailed(a, err)
		return
	}
	switch job.State {
	case muontrap.JobDone:
		res, err := a.w.client.Result(a.ctx, job.ID)
		if err != nil {
			co.attemptFailed(a, err)
			return
		}
		co.attemptDone(a, res)
	case muontrap.JobFailed:
		co.attemptJobFailed(a, job.Error)
	default:
		// Cancelled or interrupted on the worker (restart, preemption by
		// local traffic): not an outcome — re-dispatch resumable.
		co.attemptFailed(a, fmt.Errorf("worker job %s ended %s", job.ID, job.State))
	}
}

// attemptFailed settles a failed attempt: the cell re-enters the pool
// resumable, and a worker accumulating consecutive failures is marked
// dead without waiting out its heartbeat — the fast path for a machine
// that died with its TCP port, or whose agent outlived its daemon.
func (co *Coordinator) attemptFailed(a *attempt, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if a.closed {
		return // settled elsewhere (duplicate cancel, dead-worker sweep)
	}
	co.closeAttemptLocked(a)
	if errors.Is(err, context.Canceled) && co.ctx.Err() != nil {
		return // coordinator shutting down; leave the shard map as-is
	}
	co.met.observeAttempt(a.started, false)
	a.w.fails++
	if a.w.fails >= workerFailLimit {
		co.markWorkerDeadLocked(a.w)
	}
	co.requeueCellLocked(a.c)
	co.kick()
}

// attemptDone settles a successful attempt: the first completion of a
// cell merges, any later one is discarded with a counter — the merge is
// idempotent by cache key, so a steal winner and the original finishing
// both can never corrupt the table.
func (co *Coordinator) attemptDone(a *attempt, res *muontrap.SweepResult) {
	co.mu.Lock()
	c := a.c
	if !a.closed {
		co.closeAttemptLocked(a)
		a.w.fails = 0
		co.met.observeAttempt(a.started, true)
	}
	if c.done || !c.job.active {
		// First writer already won this cell's merge (the check runs even
		// for attempts the winner closed moments ago — a straggler's
		// completion can race the winner's sibling-cancel): the duplicate
		// is counted and discarded, never merged twice.
		co.stats.Duplicates++
		co.span(telemetry.Span{
			Event: "duplicate", Job: c.job.Rec.ID, Cell: cellLabel(c), Worker: a.w.id,
			Detail: "completion discarded; first writer already merged",
		})
		co.mu.Unlock()
		co.kick()
		return
	}
	if len(res.Runs) != 1 {
		// Cells are single-cell sweeps by construction.
		co.mu.Unlock()
		co.failJob(c.job, fmt.Sprintf("fleet: worker %s returned %d runs for a single-cell sweep", a.w.id, len(res.Runs)))
		return
	}
	co.span(telemetry.Span{
		Event: "merge", Job: c.job.Rec.ID, Cell: cellLabel(c), Worker: a.w.id,
		Seconds: time.Since(a.started).Seconds(),
	})
	j := c.job
	var final *muontrap.SweepResult
	if co.mergeCellLocked(c, res.Runs[0]) {
		// The last cell landed: the job's outcome is decided here, and
		// made durable before anyone can observe it.
		j.active = false
		final = j.assembleLocked()
		co.span(telemetry.Span{Event: "done", Job: j.Rec.ID})
	}
	// A slower sibling attempt (straggler being stolen from) is now moot:
	// stop following it and best-effort cancel the remote job.
	for sib := range c.attempts {
		co.closeAttemptLocked(sib)
		co.cancelRemote(sib)
	}
	co.mu.Unlock()
	if final != nil {
		co.front.Finish(j, muontrap.JobDone, "", final)
	} else {
		co.front.Persist(j)
	}
	co.kick()
}

// mergeCellLocked records a cell's first completion: its run fills every
// declaration index the cell covers and a progress frame is published
// per index. It reports whether that was the job's last cell. Callers
// hold co.mu.
func (co *Coordinator) mergeCellLocked(c *cell, run muontrap.RunResult) bool {
	c.done = true
	j := c.job
	done := 0
	for _, r := range j.results {
		if r != nil {
			done++
		}
	}
	for _, idx := range c.indexes {
		r := run
		j.results[idx] = &r
		done++
		// Frame ids are sequential in completion order — cells land in
		// whatever order machines finish them.
		j.PublishProgress(muontrap.Progress{Done: done, Total: len(j.results), Run: run})
	}
	return done == len(j.results)
}

// assembleLocked builds the declaration-ordered SweepResult from the
// merged cells. Callers hold co.mu and have verified every index is
// filled.
func (j *fleetJob) assembleLocked() *muontrap.SweepResult {
	out := &muontrap.SweepResult{Runs: make([]muontrap.RunResult, len(j.results))}
	for i, r := range j.results {
		if r != nil {
			out.Runs[i] = *r
		}
	}
	return out
}

// attemptJobFailed fails the whole fleet job: a worker ran the cell and
// the sweep itself errored (not the worker), so every other machine
// would fail it identically.
func (co *Coordinator) attemptJobFailed(a *attempt, msg string) {
	co.mu.Lock()
	if a.closed {
		co.mu.Unlock()
		return
	}
	co.closeAttemptLocked(a)
	a.w.fails = 0
	j := a.c.job
	co.mu.Unlock()
	co.failJob(j, msg)
}

// failJob decides a job failed and settles its open attempts.
func (co *Coordinator) failJob(j *fleetJob, msg string) {
	co.mu.Lock()
	if !j.active {
		co.mu.Unlock()
		return
	}
	j.active = false
	co.settleLocked(j)
	co.span(telemetry.Span{Event: "failed", Job: j.Rec.ID, Detail: msg})
	co.mu.Unlock()
	co.front.Finish(j, muontrap.JobFailed, msg, nil)
}

// settleLocked closes every open attempt of j and cancels its remote
// job. Callers hold co.mu.
func (co *Coordinator) settleLocked(j *fleetJob) {
	for _, c := range j.cells {
		for a := range c.attempts {
			co.closeAttemptLocked(a)
			co.cancelRemote(a)
		}
	}
}

// cancelRemote best-effort cancels an attempt's worker-side job so a
// stolen-from straggler stops burning cycles on a moot cell. Callers
// hold co.mu (only immutable attempt fields are read in the goroutine).
func (co *Coordinator) cancelRemote(a *attempt) {
	id := a.remoteID
	if id == "" {
		return
	}
	w := a.w
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = w.client.Cancel(ctx, id)
	}()
}

// ---- the jobs.Backend half --------------------------------------------

// Submit implements jobs.Backend: it shards a new job into cells and,
// unless it was born done from the result store, queues them for
// dispatch. resume pre-flags every cell to dispatch with
// checkpoint-resume.
func (co *Coordinator) Submit(_ *http.Request, base *jobs.Job, resume bool) (jobs.Handle, error) {
	j, err := co.newJob(base, resume)
	if err != nil {
		return nil, err
	}
	queued := base.Rec.State == muontrap.JobQueued
	co.mu.Lock()
	j.active = queued
	co.jobs = append(co.jobs, j)
	co.front.Add(j)
	co.mu.Unlock()
	if queued {
		co.span(telemetry.Span{Event: "submit", Job: base.Rec.ID, Detail: string(base.Rec.Priority)})
		co.span(telemetry.Span{Event: "queue", Job: base.Rec.ID})
		co.kick()
	}
	return j, nil
}

// newJob shards a sweep into its cells (muontrap.Sweep.Cells, so the
// declaration order is Runner.Sweep's), deduplicating repeated
// declarations by cache key: they share one dispatch and one merge.
// resume flags every cell to dispatch with checkpoint-resume.
func (co *Coordinator) newJob(base *jobs.Job, resume bool) (*fleetJob, error) {
	n, cells, err := base.Rec.Sweep.Cells(co.cfg.Scale, co.cfg.MaxCycles)
	if err != nil {
		return nil, err
	}
	j := &fleetJob{Job: base, results: make([]*muontrap.RunResult, len(cells))}
	byKey := make(map[string]*cell)
	for i, c := range cells {
		sub := muontrap.Sweep{Schemes: []muontrap.Scheme{c.Scheme}, MaxCycles: n.MaxCycles}
		if c.Attack != "" {
			sub.Attacks = []muontrap.AttackName{c.Attack}
		} else {
			sub.Workloads, sub.Scales = []muontrap.Workload{c.Workload}, []float64{c.Scale}
		}
		key := co.id.Key(sub)
		fc := byKey[key]
		if fc == nil {
			fc = &cell{job: j, key: key, sweep: sub, resume: resume, attempts: make(map[*attempt]struct{})}
			byKey[key] = fc
			j.cells = append(j.cells, fc)
		}
		fc.indexes = append(fc.indexes, i)
	}
	return j, nil
}

// Cancel implements jobs.Backend: it aborts a queued or running fleet
// job, settling its open attempts and cancelling their remote jobs.
func (co *Coordinator) Cancel(_ *http.Request, h jobs.Handle) (muontrap.Job, error) {
	j := h.(*fleetJob)
	co.mu.Lock()
	if j.active {
		j.active = false
		co.settleLocked(j)
		co.mu.Unlock()
		return co.front.Finish(j, muontrap.JobCancelled, "", nil), nil
	}
	co.mu.Unlock()
	rec := j.Snapshot()
	if rec.State == muontrap.JobCancelled {
		return rec, nil // idempotent
	}
	return muontrap.Job{}, jobs.Conflict("job %s is %s and cannot be cancelled", rec.ID, rec.State)
}

// Resume implements jobs.Backend: it re-enters a cancelled, failed or
// interrupted job's unfinished cells into the dispatch pool with
// checkpoint-resume.
func (co *Coordinator) Resume(_ *http.Request, h jobs.Handle) (muontrap.Job, error) {
	j := h.(*fleetJob)
	co.mu.Lock()
	j.Lock()
	if err := j.CheckResumableLocked(); err != nil {
		j.Unlock()
		co.mu.Unlock()
		return muontrap.Job{}, err
	}
	j.Rec.State = muontrap.JobQueued
	j.Rec.Error = ""
	j.Rec.FinishedAt = ""
	rec := j.Rec
	j.Unlock()
	j.active = true
	for _, c := range j.cells {
		if !c.done {
			c.resume = true
		}
	}
	co.mu.Unlock()
	co.front.Persist(j)
	co.kick()
	return rec, nil
}

// Health implements jobs.Backend.
func (co *Coordinator) Health() any { return healthResponse{Status: "ok", Stats: co.Stats()} }

// healthResponse is the /v1/healthz payload: liveness plus the fleet's
// counters, embedded flat.
type healthResponse struct {
	Status string `json:"status"`
	Stats
}

// ---- worker registry ------------------------------------------------

// register admits (or re-admits) a worker. A previous registration at
// the same base URL is retired first — its in-flight cells re-queue —
// so a restarted worker process never leaves a zombie entry holding
// dispatch capacity.
func (co *Coordinator) register(req RegisterRequest) RegisterResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, w := range co.workers {
		if w.base == req.BaseURL && !w.dead {
			co.markWorkerDeadLocked(w)
			co.stats.DeadWorkers-- // replaced, not lost
		}
	}
	w := &worker{
		id:       newWorkerID(),
		name:     req.Name,
		base:     req.BaseURL,
		client:   client.New(req.BaseURL, client.WithRetries(workerRetries)),
		lastSeen: time.Now(),
	}
	co.workers[w.id] = w
	co.kick()
	return RegisterResponse{WorkerID: w.id}
}

// heartbeat refreshes a worker's liveness; false means the coordinator
// does not know (or has retired) the worker and it must re-register.
func (co *Coordinator) heartbeat(req HeartbeatRequest) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[req.WorkerID]
	if !ok || w.dead {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// Workers snapshots the registry, sorted by id.
func (co *Coordinator) Workers() []WorkerStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerStatus, 0, len(co.workers))
	for _, w := range co.workers {
		out = append(out, WorkerStatus{
			ID: w.id, Name: w.name, BaseURL: w.base,
			Alive: !w.dead, Inflight: w.inflight,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// newWorkerID returns a fresh random worker identifier.
func newWorkerID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("w-t%x", time.Now().UnixNano())
	}
	return "w-" + hex.EncodeToString(b[:])
}
