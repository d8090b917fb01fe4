// Package jobs is the one job front-end behind muontrapd and the fleet
// coordinator: the /v1 HTTP surface, the job table and record, the
// content key, the journal, the result store and the SSE stream. Two
// backends plug in underneath through the Backend interface —
// internal/service runs jobs on a local Runner pool (priority,
// preemption, tenancy) and internal/fleet shards them across workers —
// and serve byte-identical wire formats because there is only one
// implementation of each.
//
// Key types:
//
//   - Identity: the daemon flags that enter every result's content key
//     (scale, cycle bound, warm-up, checkpoint cadence). Key derives the
//     key of a sweep; a journaled job recorded under other flags loads
//     but refuses resume.
//   - Front: the job table and route table. It validates and keys
//     submissions, answers born-done resubmissions from the
//     content-keyed result store, journals records under Dir/<name>/jobs
//     and stores results under Dir/<name>/sweeps.
//   - Job: one job's published record, its SSE frame ring and its
//     subscribers. Backends embed *Job in their own job type.
//   - Backend: admission, cancel, resume, journal replay and the health
//     payload — the only behaviour that differs between the two daemons.
//
// Invariants:
//
//   - Durable before observable: Finish stores a done job's result,
//     journals the terminal record, and only then publishes it, so a
//     client acting on a terminal state finds both on disk.
//   - Journal writes of one job are serialised, and each writes the
//     record as published at that moment, so the newest write always
//     wins.
//   - The canonical pre-hash key string is stable byte for byte: it is
//     the identity of every stored result.
package jobs
