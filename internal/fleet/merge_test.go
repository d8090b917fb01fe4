package fleet

import (
	"context"
	"testing"
	"time"

	"repro/muontrap"
)

// inertCoordinator builds a coordinator whose scheduler never acts on
// its own, so a test can drive the attempt lifecycle by hand: its ticks
// find no registered worker to dispatch to or expire, and stealing is
// off (StealAfter 0).
func inertCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	co, err := New(Config{
		Dir:              t.TempDir(),
		CheckpointEvery:  2000,
		HeartbeatTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// openAttempt wires a hand-made attempt into a cell exactly as
// startAttemptLocked would, minus the attempt goroutine.
func openAttempt(co *Coordinator, c *cell, w *worker) *attempt {
	ctx, cancel := context.WithCancel(context.Background())
	a := &attempt{w: w, c: c, ctx: ctx, cancel: cancel, started: time.Now()}
	co.mu.Lock()
	c.attempts[a] = struct{}{}
	w.inflight++
	co.mu.Unlock()
	return a
}

// submit queues sw through the front-end and returns its shard map.
func submit(t *testing.T, co *Coordinator, sw muontrap.Sweep) *fleetJob {
	t.Helper()
	rec, cached, err := co.front.Submit(nil, sw, "", false)
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	h, err := co.front.Lookup(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	return h.(*fleetJob)
}

func run(cycles uint64) *muontrap.SweepResult {
	return &muontrap.SweepResult{Runs: []muontrap.RunResult{{
		Workload: "swaptions", Scheme: "muontrap", Scale: 0.02,
		Result: muontrap.Result{Cycles: cycles, Instructions: cycles * 2},
	}}}
}

// TestMergeDuplicateCompletionIdempotent is the satellite regression
// for the steal/migration race: when two attempts of the same cell both
// finish — the steal winner and the original, or a migrated re-dispatch
// and a worker wrongly presumed dead — the first completion wins the
// merge by cache key and the second is discarded with a counter, never
// merged. The job's table must carry the first writer's run untouched.
func TestMergeDuplicateCompletionIdempotent(t *testing.T) {
	co := inertCoordinator(t)
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.02},
	}
	j := submit(t, co, sw)
	c := j.cells[0]

	w1 := &worker{id: "w1"}
	w2 := &worker{id: "w2"}
	a1 := openAttempt(co, c, w1)
	a2 := openAttempt(co, c, w2)

	co.attemptDone(a1, run(1111))
	co.attemptDone(a2, run(2222)) // the duplicate: same cell, later finish

	co.mu.Lock()
	defer co.mu.Unlock()
	if j.Rec.State != muontrap.JobDone {
		t.Fatalf("job state %s, want done", j.Rec.State)
	}
	if got := j.results[0].Cycles; got != 1111 {
		t.Fatalf("merged run has %d cycles: the duplicate overwrote the first writer (want 1111)", got)
	}
	if co.stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", co.stats.Duplicates)
	}
	if w1.inflight != 0 || w2.inflight != 0 {
		t.Fatalf("worker slots not released: w1=%d w2=%d", w1.inflight, w2.inflight)
	}
	if len(c.attempts) != 0 {
		t.Fatalf("%d attempts still open on a merged cell", len(c.attempts))
	}
}

// TestMergeDuplicateAfterSiblingCancel pins the narrower race inside
// the same regression: the winner's merge closes the sibling attempt
// moments before the sibling's own completion lands. The late
// completion arrives on an already-closed attempt and must still be
// counted and discarded — not dropped silently, and above all not
// merged.
func TestMergeDuplicateAfterSiblingCancel(t *testing.T) {
	co := inertCoordinator(t)
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"blackscholes"},
		Schemes:   []muontrap.Scheme{"stt-spectre"},
		Scales:    []float64{0.02},
	}
	j := submit(t, co, sw)
	c := j.cells[0]

	w1 := &worker{id: "w1"}
	w2 := &worker{id: "w2"}
	a1 := openAttempt(co, c, w1)
	a2 := openAttempt(co, c, w2)

	co.attemptDone(a1, run(1111)) // winner merges and closes a2
	co.mu.Lock()
	if !a2.closed {
		co.mu.Unlock()
		t.Fatal("winner's merge did not close the sibling attempt")
	}
	co.mu.Unlock()

	co.attemptDone(a2, run(2222)) // sibling's completion raced the cancel

	co.mu.Lock()
	defer co.mu.Unlock()
	if got := j.results[0].Cycles; got != 1111 {
		t.Fatalf("late duplicate overwrote the merge: %d cycles, want 1111", got)
	}
	if co.stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", co.stats.Duplicates)
	}
}
