package muontrap_test

import (
	"testing"

	"repro/internal/simtest"
	"repro/muontrap"
)

// golden pins RunResult cycles and committed-instruction counts for one
// fixed configuration per scheme. The values were captured on the seed
// tree (container/heap scheduler, per-dispatch dynInst allocation,
// switch-decoded ISA) and must survive every hot-path rewrite unchanged:
// the event queue's (when, seq) total order and the pipeline's scheduling
// decisions are load-bearing for every figure in the evaluation.
//
// These runs go through Runner.Run -> figures.RunOne, which is not
// memoized, so each entry is a fresh simulation.
var golden = map[muontrap.Scheme]struct {
	Cycles    uint64
	Committed uint64
}{
	"insecure":           {Cycles: 20864, Committed: 25814},
	"muontrap":           {Cycles: 20480, Committed: 25814},
	"invisispec-spectre": {Cycles: 20928, Committed: 25814},
	"invisispec-future":  {Cycles: 20928, Committed: 25814},
	"stt-spectre":        {Cycles: 20864, Committed: 25814},
	"stt-future":         {Cycles: 21888, Committed: 25814},
}

func goldenRun(t *testing.T, scheme muontrap.Scheme) muontrap.RunResult {
	t.Helper()
	res, err := run("hmmer", scheme, 0.1)
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	return res
}

// TestGoldenCyclesPerScheme asserts cycle-exact reproduction of the seed
// simulator's timing for every scheme.
func TestGoldenCyclesPerScheme(t *testing.T) {
	for scheme, want := range golden {
		scheme, want := scheme, want
		t.Run(string(scheme), func(t *testing.T) {
			res := goldenRun(t, scheme)
			if res.Cycles != want.Cycles || res.Instructions != want.Committed {
				t.Fatalf("got %d cycles / %d committed, want %d / %d",
					res.Cycles, res.Instructions, want.Cycles, want.Committed)
			}
		})
	}
}

// TestGoldenMultiCoreParsec pins a 4-core full-system run (timer ticks,
// domain flushes, coherence traffic) under full MuonTrap.
func TestGoldenMultiCoreParsec(t *testing.T) {
	res, err := run("canneal", "muontrap", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 41536 || res.Instructions != 40228 {
		t.Fatalf("got %d cycles / %d committed, want 41536 / 40228", res.Cycles, res.Instructions)
	}
}

// TestRunBitIdenticalAcrossInvocations asserts two fresh simulations of
// the same config agree bit-for-bit on cycles, instructions and every
// counter — the determinism the figure matrices (and their memoization)
// rely on.
func TestRunBitIdenticalAcrossInvocations(t *testing.T) {
	a := goldenRun(t, "muontrap")
	b := goldenRun(t, "muontrap")
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("run differs: %d/%d vs %d/%d", a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
	simtest.CountersEqual(t, "muontrap", a.Counters, b.Counters)
}
