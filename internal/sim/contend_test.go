package sim_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/sim"
)

// contendingProg builds a 4-thread kernel that makes the cores interact
// through shared state every few cycles: a spin lock (AMO), a
// write-shared counter array, read-shared scans with data-dependent
// branches (mispredicts and squashes), syscalls (timer-independent domain
// switches) and an explicit filter flush.
func contendingProg() *isa.Program {
	b := isa.NewBuilder("contend")
	lock := b.Alloc("lock", 8, 64)
	shared := b.Alloc("shared", 1024, 64)
	priv := b.Alloc("priv", 4*64, 64)

	b.Shli(isa.X(20), isa.X(10), 6) // tid*64: private slot
	b.Li(isa.X(21), priv)
	b.Add(isa.X(21), isa.X(21), isa.X(20))
	b.Li(isa.X(22), lock)
	b.Li(isa.X(23), shared)
	b.Li(isa.X(5), 0)  // loop counter
	b.Li(isa.X(6), 60) // iterations

	b.Label("loop")
	// Take the lock (CAS 0 -> 1), bump a shared cell, release.
	b.Label("acquire")
	b.AmoCas(isa.X(7), isa.X(22), isa.Zero, 1)
	b.Bne(isa.X(7), isa.Zero, "acquire")
	b.Andi(isa.X(8), isa.X(5), 63)
	b.Shli(isa.X(8), isa.X(8), 3)
	b.Add(isa.X(8), isa.X(23), isa.X(8))
	b.Load(isa.X(9), isa.X(8), 0)
	b.Addi(isa.X(9), isa.X(9), 1)
	b.Store(isa.X(9), isa.X(8), 0)
	b.Store(isa.Zero, isa.X(22), 0) // unlock

	// Data-dependent branch off the shared value: mispredicts + squashes.
	b.Andi(isa.X(11), isa.X(9), 1)
	b.Beq(isa.X(11), isa.Zero, "even")
	b.Addi(isa.X(12), isa.X(12), 3)
	b.Jmp("join")
	b.Label("even")
	b.Addi(isa.X(12), isa.X(12), 5)
	b.Label("join")
	b.Store(isa.X(12), isa.X(21), 0)

	// Periodic syscall and filter flush to hit the domain-switch paths.
	b.Andi(isa.X(13), isa.X(5), 15)
	b.Bne(isa.X(13), isa.Zero, "nosys")
	b.Syscall()
	b.FlushSF()
	b.Label("nosys")

	b.Addi(isa.X(5), isa.X(5), 1)
	b.Blt(isa.X(5), isa.X(6), "loop")
	b.Halt()
	return b.MustBuild()
}

// contendingSystem builds a 4-core MuonTrap-mode machine (filter caches,
// commit-time promotion, timer-driven domain flushes) running four
// threads of the contending kernel.
func contendingSystem(t *testing.T) *sim.System {
	t.Helper()
	cfg := sim.DefaultConfig(4)
	sch := defense.MuonTrap()
	cfg.Mem.Mode = sch.Mode
	cfg.CPU.Defense = sch.CPU
	cfg.TimerInterval = 3000
	cfg.BTBIsolation = true
	s := sim.New(cfg)
	prog := contendingProg()
	p := s.NewProcess(prog)
	for th := 1; th < 4; th++ {
		s.AddThread(p, th, prog.Entry)
	}
	for core := 0; core < 4; core++ {
		s.RunOn(core, p, core)
	}
	return s
}

// TestContendedCoresCheckpointResume runs the contending kernel twice
// with mid-run checkpoints: both runs must take byte-identical snapshots
// and finish bit-identically, and a machine resumed from the middle
// snapshot must finish with the uninterrupted run's exact result.
func TestContendedCoresCheckpointResume(t *testing.T) {
	const maxCycles, every = 5_000_000, 20_000
	run := func() ([]*checkpoint.Snapshot, sim.RunResult) {
		var snaps []*checkpoint.Snapshot
		res, err := contendingSystem(t).RunUntilHaltCkpt(context.Background(), maxCycles, every,
			func(sn *checkpoint.Snapshot) error { snaps = append(snaps, sn); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return snaps, res
	}
	snaps, want := run()
	if want.Committed == 0 || len(snaps) == 0 {
		t.Fatalf("workload committed %d instructions over %d checkpoints", want.Committed, len(snaps))
	}
	again, res := run()
	if len(again) != len(snaps) {
		t.Fatalf("snapshot counts differ between runs: %d vs %d", len(again), len(snaps))
	}
	for i := range snaps {
		if again[i].Hash() != snaps[i].Hash() {
			t.Fatalf("snapshot %d differs between runs", i)
		}
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("results differ between runs")
	}

	s := contendingSystem(t)
	if err := s.RestoreSnapshot(snaps[len(snaps)/2]); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunUntilHaltCkpt(context.Background(), maxCycles, every, func(*checkpoint.Snapshot) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("resumed run diverges from the uninterrupted run")
	}
}
