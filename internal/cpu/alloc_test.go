package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// loopKernel is a tight cached ALU/branch loop: once the line buffer,
// caches and predictor warm up, every cycle exercises the full
// dispatch→issue→execute→commit path without leaving the core.
func loopKernel(n int64) *isa.Program {
	b := isa.NewBuilder("hotloop")
	b.Li(isa.X(5), 0)
	b.Li(isa.X(6), 1)
	b.Li(isa.X(7), uint64(n))
	b.Label("loop")
	b.Add(isa.X(5), isa.X(5), isa.X(6))
	b.Xor(isa.X(8), isa.X(5), isa.X(6))
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Bge(isa.X(7), isa.X(6), "loop")
	b.Halt()
	return b.MustBuild()
}

func warmSystem(tb testing.TB, defense cpu.Defense, mode memsys.Mode, prog *isa.Program) *sim.System {
	tb.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.CPU.Defense = defense
	cfg.Mem.Mode = mode
	s := sim.New(cfg)
	p := s.NewProcess(prog)
	s.RunOn(0, p, 0)
	s.Step(20_000) // warm caches, predictor, pools and event-queue arrays
	if s.Cores[0].Halted() {
		tb.Fatal("kernel halted during warmup; increase iters")
	}
	return s
}

// TestDispatchCommitZeroAlloc pins the tentpole property on the pipeline:
// the steady-state dispatch→commit cycle of a cached loop kernel performs
// zero heap allocations — pooled dynInsts, pooled rename snapshots, ring
// ROB/store-buffer, typed events, slot-parked completions and the issue
// queue's reused waiter and ready lists. The L1-resident pointer chase
// keeps consumers waiting on loads, under both taint tracking and
// invisible loads.
func TestDispatchCommitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		defense cpu.Defense
		mode    memsys.Mode
		prog    *isa.Program
	}{
		{"insecure", cpu.DefenseNone, memsys.Mode{}, loopKernel(40_000_000)},
		{"muontrap", cpu.DefenseNone, mtMode, loopKernel(40_000_000)},
		{"stt-future/dependent-load", cpu.DefenseSTTFuture, memsys.Mode{}, dependentLoadKernel(40_000_000)},
		{"invisispec-future/dependent-load", cpu.DefenseInvisiSpecFuture, memsys.Mode{}, dependentLoadKernel(40_000_000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := warmSystem(t, tc.defense, tc.mode, tc.prog)
			before := s.Cores[0].CommittedInsts()
			allocs := testing.AllocsPerRun(50, func() { s.Step(50) })
			if allocs != 0 {
				t.Fatalf("steady-state step allocates %.2f, want 0", allocs)
			}
			if s.Cores[0].CommittedInsts() == before {
				t.Fatal("no instructions committed during measurement")
			}
		})
	}
}

// BenchmarkDispatchCommit measures the core-only hot path: simulated
// instructions per second on a cached ALU loop (no memory traffic after
// warmup), isolating dispatch/issue/execute/commit from the memory system.
func BenchmarkDispatchCommit(b *testing.B) {
	s := warmSystem(b, cpu.DefenseNone, memsys.Mode{}, loopKernel(4_000_000_000))
	b.ReportAllocs()
	start := s.Cores[0].CommittedInsts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
	b.StopTimer()
	insts := s.Cores[0].CommittedInsts() - start
	if b.N > 100 && insts == 0 {
		b.Fatal("no progress")
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}
