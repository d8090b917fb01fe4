// Package fleet shards one declarative Sweep across a fleet of muontrapd
// workers and merges the results byte-identically to a single-machine
// run.
//
// The Coordinator is the second backend of the internal/jobs front-end,
// so it serves the very /v1/jobs surface a single daemon does and
// muontrap/client drives a fleet and a lone daemon with identical code.
// On top of it the coordinator serves only its /fleet/v1/* control
// plane and the shared checkpoint store. Internally it splits a
// submitted sweep into single-cell jobs with muontrap.Sweep.Cells,
// dispatches them to registered workers (see Agent) as client.Sweep
// would — submit, follow the job's stream, fetch the result — steals
// cells from stragglers, and — when a worker dies mid-cell —
// re-dispatches the interrupted cell to another machine with
// checkpoint-resume enabled. The migrated run picks up from the dead
// worker's latest mid-run checkpoint, which is network-reachable
// because every worker mirrors its checkpoints into the coordinator's
// HTTP content store (checkpoint.Mirror over checkpoint.HTTPStore, same
// keying as the local store).
//
// Merging is idempotent and declaration-ordered: each cell's result
// lands under its cache key exactly once (a duplicate completion — the
// steal winner and the original both finishing — is counted and
// discarded, never merged twice), and the assembled SweepResult lists
// cells in declaration order regardless of which machine finished which
// cell when. The fleet's answer is byte-identical to Runner.Sweep's.
//
// The coordinator journals its shard map (cells, their done/pending
// state, and per-cell results) with each job record under its
// directory, so a restarted coordinator resumes a half-finished sweep
// without re-running completed cells. A terminal state — done, failed,
// cancelled — is decided under the coordinator's lock (the job stops
// dispatching at once) and published by the front-end only once it is
// durable.
package fleet
