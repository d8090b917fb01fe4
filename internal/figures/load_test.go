package figures

import (
	"runtime"
	"testing"

	"repro/internal/defense"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// loadKernel is the SPEC kernel with the largest data image (a 16 MB
// working set, zero-initialised), the worst case for program load.
const loadKernel = "mcf"

// byteWiseSystem assembles the machine BuildSystem assembles for a
// 1-core SPEC kernel, then reloads every data segment into empty physical
// memory one Write8 at a time: the reference the page-wise WriteData
// must match.
func byteWiseSystem(spec workload.Spec, sch defense.Scheme, scale float64) *sim.System {
	prog := workload.Build(spec, scale)
	cfg := sim.DefaultConfig(1)
	cfg.CPU.Defense = sch.CPU
	cfg.Mem.Mode = sch.Mode
	sys := sim.New(cfg)
	p := sys.NewProcess(prog)
	sys.RunOn(0, p, 0)
	*sys.Phys = *mem.NewPhysical()
	for _, seg := range prog.Data {
		for i, b := range seg.Bytes {
			va := seg.Base + uint64(i)
			pfn, ok := p.PT.Translate(va >> mem.PageShift)
			if !ok {
				panic("data segment page unmapped")
			}
			sys.Phys.Write8(mem.Addr(pfn<<mem.PageShift|va%mem.PageBytes), b)
		}
	}
	return sys
}

// TestPageWiseLoadMatchesByteWiseSnapshot pins that skipping zero chunks
// during program load is invisible: the machine BuildSystem assembles
// snapshots to the same hash as a byte-wise reference load.
func TestPageWiseLoadMatchesByteWiseSnapshot(t *testing.T) {
	const scale = 0.15
	spec := simtest.MustSpec(t, loadKernel)
	sch := defense.MuonTrap()
	got, err := BuildSystem(spec, sch, scale).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := byteWiseSystem(spec, sch, scale).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != want.Hash() {
		t.Fatalf("%s: page-wise load snapshot %s, byte-wise reference %s", spec.Name, got.Hash(), want.Hash())
	}
}

// buildOverheadLimit bounds the bytes one BuildSystem call may allocate
// beyond the program's own data image. Loading the image frame by frame
// with zero chunks skipped costs about 2 MiB over the image for the
// largest SPEC kernel; a byte-wise load that backs every frame costs
// another image's worth (~32 MiB).
const buildOverheadLimit = 8 << 20

// TestBuildSystemAllocationBytes gates set-up churn for the largest SPEC
// kernel: the bytes one BuildSystem call allocates, less the data image
// workload.Build must allocate anyway, stay under buildOverheadLimit.
func TestBuildSystemAllocationBytes(t *testing.T) {
	const scale = 0.15
	spec := simtest.MustSpec(t, loadKernel)
	var image uint64
	for _, seg := range workload.Build(spec, scale).Data {
		image += uint64(len(seg.Bytes))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	BuildSystem(spec, defense.MuonTrap(), scale)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > image+buildOverheadLimit {
		t.Fatalf("%s: BuildSystem allocated %d bytes, %d over its %d-byte data image (limit %d)",
			spec.Name, alloc, alloc-image, image, buildOverheadLimit)
	}
}
