// Package mem provides the physical address space (sparse page-frame
// storage with byte-accurate contents) and the DRAM timing model at the
// bottom of the simulated memory hierarchy.
//
// The simulator uses the classic timing/functional split: caches above
// this package carry tags and coherence state only, while actual data
// bytes live here. Attack programs depend on real data flow (a
// speculatively loaded secret byte must steer a second access), so the
// contents are exact.
//
// Key types:
//
//   - Addr / VAddr: physical and virtual byte addresses, with the
//     line/page geometry constants (LineBytes, PageBytes) shared by the
//     whole hierarchy.
//   - Physical: sparse 4KiB-frame memory. Reads of unbacked memory return
//     zeroes; writes allocate frames on demand, except that WriteData
//     skips zero chunks bound for absent frames. Save elides all-zero
//     frames — semantically invisible — and serialises the rest in frame
//     order, so equal contents always produce equal snapshot bytes.
//   - DRAM / DRAMConfig: a bank-aware open-row latency model (per-bank row
//     tracking plus a shared data-bus serialisation constraint), DDR3-1600
//     class by default (Table 1).
//
// Invariants:
//
//   - Multi-byte accesses are little-endian and may straddle frame
//     boundaries.
//   - DRAM.Access only computes timing; it never stores data (data lives
//     in Physical) and the caller schedules its own completion event.
package mem
