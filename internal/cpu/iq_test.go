package cpu_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// iqSchemes are the pipeline configurations the issue-queue invariant runs
// under: the baseline, full MuonTrap (filter flushes), both taint-tracking
// and invisible-load defenses and SafeBet (stalled speculative accesses).
var iqSchemes = []string{"insecure", "muontrap", "stt-future", "invisispec-spectre", "safebet"}

// mispredictKernel branches on a pseudo-random bit every iteration, with
// a load and a store on one arm and a divide on the other, so squashes
// cut through waiter lists and the ready list constantly.
func mispredictKernel() *isa.Program {
	b := isa.NewBuilder("iq-mispredict")
	buf := b.Alloc("buf", 4096, 64)
	b.Li(isa.X(20), buf)
	b.Li(isa.X(5), 0)
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), 300)
	b.Li(isa.X(12), 12345)
	b.Label("loop")
	b.Li(isa.X(13), 1103515245)
	b.Mul(isa.X(12), isa.X(12), isa.X(13))
	b.Addi(isa.X(12), isa.X(12), 12345)
	b.Shri(isa.X(14), isa.X(12), 16)
	b.Andi(isa.X(15), isa.X(14), 0x3f8)
	b.Add(isa.X(15), isa.X(15), isa.X(20))
	b.Andi(isa.X(14), isa.X(14), 1)
	b.Beq(isa.X(14), isa.Zero, "skip")
	b.Load(isa.X(16), isa.X(15), 0)
	b.Add(isa.X(5), isa.X(5), isa.X(16))
	b.Store(isa.X(5), isa.X(15), 0)
	b.Jmp("next")
	b.Label("skip")
	b.Div(isa.X(17), isa.X(12), isa.X(7))
	b.Add(isa.X(5), isa.X(5), isa.X(17))
	b.Label("next")
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Blt(isa.X(6), isa.X(7), "loop")
	b.Halt()
	return b.MustBuild()
}

// chaseRing returns a data image of n 64-byte nodes, each holding the
// byte offset of the next node of one ring, with a stride that defeats
// next-line prefetching.
func chaseRing(n int) []byte {
	img := make([]byte, n*64)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(img[i*64:], uint64((i*7+3)%n*64))
	}
	return img
}

// dependentLoadKernel chases a pointer ring: each load's address is
// derived from the previous load's value, and ALU consumers hang off
// every load. An independent divide chain keeps older instructions
// executing while the loads run, so the Future defenses treat them as
// speculative (STT taints the chase, InvisiSpec makes it invisible).
func dependentLoadKernel(iters int64) *isa.Program {
	b := isa.NewBuilder("iq-chase")
	base := b.AllocInit("ring", chaseRing(64), 4096)
	b.Li(isa.X(20), base)
	b.Li(isa.X(5), base)
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), uint64(iters))
	b.Li(isa.X(11), 1)
	b.Label("loop")
	b.Div(isa.X(12), isa.X(12), isa.X(11))
	b.Load(isa.X(10), isa.X(5), 0)
	b.Add(isa.X(5), isa.X(10), isa.X(20))
	b.Add(isa.X(8), isa.X(8), isa.X(10))
	b.Xor(isa.X(9), isa.X(8), isa.X(5))
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Blt(isa.X(6), isa.X(7), "loop")
	b.Halt()
	return b.MustBuild()
}

// faultingLoadKernel trains a bounds check in-range, then feeds it an
// index far outside the mapped data. The check also waits on a cache
// miss, so the mispredicted wrong path's load from an unmapped page
// faults before the squash, and its consumers wait on a faulted producer.
func faultingLoadKernel() *isa.Program {
	b := isa.NewBuilder("iq-fault")
	const n = 64
	idx := make([]byte, n*8)
	lcg := uint32(1)
	for i := 0; i < n; i++ {
		lcg = lcg*1103515245 + 12345
		v := uint64(i % 8)
		if i > 8 && lcg>>28 == 0 { // rare and irregular, so predicted in-range
			v = 1 << 36 // unmapped once scaled by 8 and added to arr
		}
		binary.LittleEndian.PutUint64(idx[i*8:], v)
	}
	// Page-aligned: the loader maps each segment onto its own frames.
	idxs := b.AllocInit("idx", idx, 4096)
	arr := b.Alloc("arr", 64, 4096)
	cold := b.Alloc("cold", n*64, 4096)
	b.Li(isa.X(20), idxs)
	b.Li(isa.X(21), arr)
	b.Li(isa.X(22), 8) // bound
	b.Li(isa.X(23), cold)
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), n)
	b.Label("loop")
	b.Shli(isa.X(10), isa.X(6), 3)
	b.Add(isa.X(10), isa.X(10), isa.X(20))
	b.Load(isa.X(11), isa.X(10), 0)
	b.Shli(isa.X(17), isa.X(6), 6)
	b.Add(isa.X(17), isa.X(17), isa.X(23))
	b.Load(isa.X(16), isa.X(17), 0) // a new cold line every iteration
	b.Add(isa.X(16), isa.X(16), isa.X(11))
	b.Bge(isa.X(16), isa.X(22), "skip")
	b.Shli(isa.X(12), isa.X(11), 3)
	b.Add(isa.X(12), isa.X(12), isa.X(21))
	b.Load(isa.X(13), isa.X(12), 0)
	b.Add(isa.X(14), isa.X(14), isa.X(13))
	b.Shli(isa.X(15), isa.X(13), 6)
	b.Label("skip")
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Blt(isa.X(6), isa.X(7), "loop")
	b.Halt()
	return b.MustBuild()
}

// lockKernel increments a shared counter under a CAS spinlock.
func lockKernel(iters int64) *isa.Program {
	b := isa.NewBuilder("iq-lock")
	lock := b.Alloc("lock", 8, 64)
	counter := b.Alloc("counter", 8, 64)
	b.Li(isa.X(20), lock)
	b.Li(isa.X(21), counter)
	b.Li(isa.X(6), 0)
	b.Label("acquire")
	b.AmoCas(isa.X(7), isa.X(20), isa.Zero, 1)
	b.Bne(isa.X(7), isa.Zero, "acquire")
	b.Load(isa.X(8), isa.X(21), 0)
	b.Addi(isa.X(8), isa.X(8), 1)
	b.Store(isa.X(8), isa.X(21), 0)
	b.Store(isa.Zero, isa.X(20), 0)
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Li(isa.X(9), uint64(iters))
	b.Blt(isa.X(6), isa.X(9), "acquire")
	b.Halt()
	return b.MustBuild()
}

// stepChecked runs s one cycle at a time until every core halts, checking
// the issue-queue invariant on every core before every cycle and at the
// end.
func stepChecked(t *testing.T, s *sim.System, maxCycles int) {
	t.Helper()
	for cyc := 0; ; cyc++ {
		halted := true
		for i, c := range s.Cores {
			if err := cpu.CheckIssueQueue(c); err != nil {
				t.Fatalf("cycle %d, core %d: %v", s.Sched.Now(), i, err)
			}
			halted = halted && c.Halted()
		}
		if halted {
			return
		}
		if cyc == maxCycles {
			t.Fatalf("not halted after %d cycles", maxCycles)
		}
		s.Step(1)
	}
}

// schemeConfig is the default machine with the named scheme's pipeline
// defense and memory-system mode.
func schemeConfig(t *testing.T, scheme string, cores int) sim.Config {
	t.Helper()
	sch, err := defense.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(cores)
	cfg.CPU.Defense = sch.CPU
	cfg.Mem.Mode = sch.Mode
	return cfg
}

// TestIssueQueueInvariant checks the wake-up issue queue against a
// recomputation from the ROB after every cycle, across kernels that
// squash, chain loads, fault on the wrong path, serialise on AMOs and
// switch context with instructions in flight.
func TestIssueQueueInvariant(t *testing.T) {
	kernels := []struct {
		name string
		prog *isa.Program
	}{
		{"mispredict", mispredictKernel()},
		{"dependent-load", dependentLoadKernel(400)},
		{"wrong-path-fault", faultingLoadKernel()},
		{"amo-lock", lockKernel(40)},
	}
	for _, scheme := range iqSchemes {
		for _, k := range kernels {
			t.Run(scheme+"/"+k.name, func(t *testing.T) {
				s := sim.New(schemeConfig(t, scheme, 1))
				s.RunOn(0, s.NewProcess(k.prog), 0)
				stepChecked(t, s, 2_000_000)
				if s.Cores[0].HaltedBad() {
					t.Fatal("kernel halted abnormally")
				}
			})
		}
		// A context switch mid-run flushes a full pipeline.
		t.Run(scheme+"/context-switch", func(t *testing.T) {
			s := sim.New(schemeConfig(t, scheme, 1))
			s.RunOn(0, s.NewProcess(mispredictKernel()), 0)
			s.Step(600)
			if s.Cores[0].Halted() {
				t.Fatal("first process halted before the switch")
			}
			s.RunOn(0, s.NewProcess(dependentLoadKernel(100)), 0)
			stepChecked(t, s, 2_000_000)
		})
	}
}

// TestIssueQueueInvariantMultiCore runs a 4-core Parsec kernel with a
// short OS timer, so domain switches flush filter state and stall cores
// mid-flight, plus the AMO lock contended by all four cores.
func TestIssueQueueInvariantMultiCore(t *testing.T) {
	spec, ok := workload.ByName("canneal")
	if !ok {
		t.Fatal("canneal workload missing")
	}
	for _, scheme := range iqSchemes {
		t.Run(scheme, func(t *testing.T) {
			for _, prog := range []*isa.Program{workload.Build(spec, 0.01), lockKernel(25)} {
				cfg := schemeConfig(t, scheme, 4)
				cfg.TimerInterval = 1_000
				cfg.TimerCost = 100
				s := sim.New(cfg)
				p := s.NewProcess(prog)
				s.RunOn(0, p, 0)
				for th := 1; th < 4; th++ {
					s.AddThread(p, th, prog.Entry)
					s.RunOn(th, p, th)
				}
				stepChecked(t, s, 200_000)
				if s.TimerTicks == 0 {
					t.Fatal("no timer ticks during the run")
				}
			}
		})
	}
}
