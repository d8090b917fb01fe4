// Package cpu implements the out-of-order superscalar core of the paper's
// Table 1: 8-wide, 192-entry ROB, 64-entry issue queue, 32-entry load and
// store queues, 6 integer ALUs, 4 FP ALUs and 2 multiply/divide units,
// fed by the tournament branch predictor of internal/bpred and backed by
// the memory system of internal/memsys.
//
// The core performs real speculative functional execution: wrong-path
// instructions execute with whatever register values the rename map holds
// and issue real memory accesses, which is exactly the behaviour Spectre
// attacks exploit and MuonTrap contains. Squashes restore rename-map
// checkpoints and predictor state.
//
// Key types:
//
//   - Core: one hardware thread — architectural registers, rename map,
//     ROB/IQ/LSQ, post-commit store buffer, fetch engine and statistics.
//     Tick advances it one cycle; the owner (internal/sim) advances the
//     shared event scheduler.
//   - dynInst: one in-flight dynamic instruction, pool-allocated.
//   - Defense: the pipeline-level defense models compared against MuonTrap
//     (InvisiSpec and STT, each in Spectre and Future variants). MuonTrap
//     itself needs almost nothing from the core beyond commit-time hooks
//     and NACK retries: its protection lives in the memory system.
//
// Invariants:
//
//   - dynInst seq-validation: dynInsts are recycled through a fixed pool,
//     so every reference that can outlive an instruction — rename entries,
//     producer links, scheduled events, MSHR waiters — carries the
//     instruction's seq and validates it before use. A recycled slot has a
//     different seq (or seq 0 while free); a mismatch means the producer
//     committed (its value is architectural) or the event is stale and
//     must be dropped.
//   - Issue is wake-up driven: an instruction enters the age-ordered
//     ready list at dispatch or when its last producer completes (wake),
//     and issue walks only that list. Every completion that makes a
//     register value available must call wake.
//   - Commit is in order; stores update functional memory the moment they
//     leave the store buffer, preserving per-core visibility order.
//   - Quiesced() (empty pipeline, drained stores, no in-flight fetch) is
//     the only state Save/Restore handles: the snapshot format
//     deliberately has no encoding for in-flight speculation.
package cpu
