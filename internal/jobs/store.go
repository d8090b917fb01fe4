package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/muontrap"
)

// entry is the JSON layout of one journaled job: the record, the
// identity flags it was keyed under, and the backend's payload (the
// fleet's shard map; absent for the daemon). checkpoint.WriteAtomic
// keeps each file either the old entry or the new one, never a torn mix.
type entry struct {
	Version int          `json:"version"`
	Job     muontrap.Job `json:"job"`
	Identity
	Cells any `json:"cells,omitempty"`
}

func (f *Front) jobPath(id string) string { return filepath.Join(f.dir, "jobs", id+".json") }

func (f *Front) resultPath(key string) string { return filepath.Join(f.dir, "sweeps", key+".json") }

// Persist journals a job's record as published right now. Journal writes
// of one job are serialised (Finish holds the same lock across its
// durable writes and the publish), so a slower earlier write can never
// land over a newer record.
func (f *Front) Persist(h Handle) {
	j := h.base()
	j.journal.Lock()
	defer j.journal.Unlock()
	f.writeJournal(h, j.Snapshot())
}

// writeJournal writes one job record, best-effort but loud: losing the
// journal degrades restart-resume, so failures are reported on stderr
// rather than swallowed.
func (f *Front) writeJournal(h Handle, rec muontrap.Job) {
	if f.dir == "" {
		return
	}
	b, err := json.MarshalIndent(entry{Version: journalVersion, Job: rec, Identity: f.id, Cells: f.b.Cells(h)}, "", "\t")
	if err == nil {
		err = writeFile(f.jobPath(rec.ID), b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: journaling %s failed: %v\n", f.log, rec.ID, err)
	}
}

// storeResult persists a completed sweep's result under its cache key,
// reporting whether it durably landed.
func (f *Front) storeResult(key string, res *muontrap.SweepResult) bool {
	if f.dir == "" || res == nil {
		return false
	}
	b, err := json.MarshalIndent(res, "", "\t")
	if err == nil {
		err = writeFile(f.resultPath(key), b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: storing result %s failed: %v\n", f.log, key, err)
		return false
	}
	return true
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return checkpoint.WriteAtomic(path, b)
}

// loadResult fetches a stored sweep result by cache key. Any failure —
// including a key that is not the canonical 64-hex shape — is a miss:
// the store is an accelerator, never an oracle, and never a path oracle
// either.
func (f *Front) loadResult(key string) (*muontrap.SweepResult, bool) {
	if f.dir == "" || !ValidKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(f.resultPath(key))
	if err != nil {
		return nil, false
	}
	var res muontrap.SweepResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// storedResult is loadResult for a job of total cells: a stored result
// of any other length is a miss.
func (f *Front) storedResult(key string, total int) (*muontrap.SweepResult, bool) {
	res, ok := f.loadResult(key)
	return res, ok && len(res.Runs) == total
}

// Load replays the journal a previous process left behind, in
// submission order, through Backend.Replay. Unreadable or malformed
// entries are skipped loudly. A job that is not done and was recorded
// under other identity flags loads with Incompat set: one stale entry
// must not brick the daemon, and done jobs never re-run, so they place
// no constraint on the flags.
func (f *Front) Load() error {
	if f.dir == "" {
		return nil
	}
	dir := filepath.Join(f.dir, "jobs")
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("%s journal: %w", f.log, err)
	}
	type loaded struct {
		e     entry
		cells json.RawMessage
	}
	var all []loaded
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: skipping unreadable journal entry %s: %v\n", f.log, name, err)
			continue
		}
		l := loaded{}
		l.e.Cells = &l.cells
		if err := json.Unmarshal(b, &l.e); err != nil || l.e.Version != journalVersion || l.e.Job.ID == "" {
			fmt.Fprintf(os.Stderr, "%s: skipping malformed journal entry %s\n", f.log, name)
			continue
		}
		all = append(all, l)
	}
	// Recover submission order from the journaled timestamps: RFC 3339
	// UTC strings sort chronologically; ties fall back to ID order,
	// keeping the listing deterministic.
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a].e.Job, all[b].e.Job
		if x.SubmittedAt != y.SubmittedAt {
			return x.SubmittedAt < y.SubmittedAt
		}
		return x.ID < y.ID
	})
	for _, l := range all {
		j := newJob(l.e.Job)
		if l.e.Job.State != muontrap.JobDone {
			if err := f.id.check(l.e.Job.ID, l.e.Identity); err != nil {
				j.Incompat = err.Error()
				fmt.Fprintf(os.Stderr, "%s: %v\n", f.log, err)
			}
		}
		h, err := f.b.Replay(j, l.cells)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: skipping journal entry %s: %v\n", f.log, l.e.Job.ID, err)
			continue
		}
		f.Add(h)
	}
	return nil
}
