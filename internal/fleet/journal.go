package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/jobs"
	"repro/muontrap"
)

// The coordinator's journal payload is its shard map: every cell with its
// done/pending state and merged result, journaled with the job record by
// the jobs front-end under Dir/fleet/jobs. It is what lets a restarted
// coordinator resume a sweep without re-running done cells.

// Cells implements jobs.Backend.
func (co *Coordinator) Cells(h jobs.Handle) any {
	j := h.(*fleetJob)
	co.mu.Lock()
	defer co.mu.Unlock()
	cells := make([]CellRecord, 0, len(j.cells))
	for _, c := range j.cells {
		rec := CellRecord{Key: c.key, Sweep: c.sweep, Indexes: append([]int(nil), c.indexes...), Done: c.done}
		if c.done && j.results[c.indexes[0]] != nil {
			r := *j.results[c.indexes[0]]
			rec.Result = &r
		}
		cells = append(cells, rec)
	}
	return cells
}

// Replay implements jobs.Backend: it rebuilds one job's shard map. Done
// cells keep their merged results; pending cells of an unfinished job
// re-enter the dispatch pool with checkpoint-resume enabled (any worker's
// next attempt continues from the latest mirrored checkpoint), and a job
// that was mid-flight when the process died comes back queued so
// dispatch picks it straight up. A job journaled under other identity
// flags comes back interrupted and never dispatches.
func (co *Coordinator) Replay(base *jobs.Job, raw json.RawMessage) (jobs.Handle, error) {
	var cells []json.RawMessage
	if err := json.Unmarshal(raw, &cells); err != nil {
		return nil, fmt.Errorf("fleet: shard map: %w", err)
	}
	rec := &base.Rec
	j := &fleetJob{Job: base, results: make([]*muontrap.RunResult, rec.Total)}
	done := 0
	for _, b := range cells {
		cr, err := DecodeCellRecord(b)
		if err != nil {
			return nil, err
		}
		// The previous process may have died mid-cell; resume from the
		// latest mirrored checkpoint rather than restarting cold.
		c := &cell{
			job: j, key: cr.Key, sweep: cr.Sweep, indexes: cr.Indexes,
			done: cr.Done, resume: !cr.Done, attempts: make(map[*attempt]struct{}),
		}
		for _, idx := range cr.Indexes {
			if idx >= rec.Total {
				return nil, fmt.Errorf("cell %s index %d out of range (total %d)", cr.Key, idx, rec.Total)
			}
			if cr.Done {
				r := *cr.Result
				j.results[idx] = &r
				done++
			}
		}
		j.cells = append(j.cells, c)
	}
	switch {
	case rec.State == muontrap.JobDone:
	case !rec.State.Terminal() && base.Incompat != "":
		rec.State = muontrap.JobInterrupted
	case !rec.State.Terminal() && done == rec.Total && rec.Total > 0:
		// Every cell finished but the final journal write raced the crash.
		co.front.Finish(j, muontrap.JobDone, "", j.assembleLocked())
	case !rec.State.Terminal():
		// The process died with this job open. Requeue it; dispatch marks
		// it running again as soon as a cell lands on a worker.
		rec.State = muontrap.JobQueued
		j.active = true
	}
	if rec.State != muontrap.JobDone {
		rec.Done = done
	}
	co.jobs = append(co.jobs, j)
	return j, nil
}
