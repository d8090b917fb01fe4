package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func TestPhysicalZeroFill(t *testing.T) {
	p := NewPhysical()
	if p.Read8(0x1234) != 0 {
		t.Fatal("unbacked memory should read zero")
	}
	if p.Read64(0xffff8) != 0 {
		t.Fatal("unbacked word should read zero")
	}
	if p.FrameCount() != 0 {
		t.Fatal("reads must not allocate frames")
	}
}

func TestPhysicalReadWrite64(t *testing.T) {
	p := NewPhysical()
	p.Write64(0x1000, 0x1122334455667788)
	if got := p.Read64(0x1000); got != 0x1122334455667788 {
		t.Fatalf("Read64 = %#x", got)
	}
	// Little-endian byte order.
	if p.Read8(0x1000) != 0x88 || p.Read8(0x1007) != 0x11 {
		t.Fatal("byte order wrong")
	}
}

func TestPhysicalCrossPageAccess(t *testing.T) {
	p := NewPhysical()
	a := Addr(PageBytes - 4)
	p.Write64(a, 0xa1b2c3d4e5f60718)
	if got := p.Read64(a); got != 0xa1b2c3d4e5f60718 {
		t.Fatalf("cross-page Read64 = %#x", got)
	}
	if p.FrameCount() != 2 {
		t.Fatalf("FrameCount = %d, want 2", p.FrameCount())
	}
}

func TestPhysicalBytesRoundTrip(t *testing.T) {
	p := NewPhysical()
	in := []byte{1, 2, 3, 4, 5}
	p.WriteData(0x2000, in)
	out := p.ReadData(0x2000, 5)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("ReadData = %v", out)
		}
	}
}

// TestWriteDataZeroAllocatesNoFrames pins the page-wise program load: an
// all-zero image, straddling frames, leaves memory unbacked.
func TestWriteDataZeroAllocatesNoFrames(t *testing.T) {
	p := NewPhysical()
	p.WriteData(PageBytes-100, make([]byte, 3*PageBytes))
	if n := p.FrameCount(); n != 0 {
		t.Fatalf("FrameCount = %d after an all-zero WriteData, want 0", n)
	}
	if p.Read64(PageBytes) != 0 {
		t.Fatal("skipped zero chunk must still read zero")
	}
}

// TestWriteDataMixedRoundTrip writes images of zero and non-zero runs,
// some straddling frame boundaries, over memory that already holds data,
// and checks ReadData returns exactly what a byte-wise Write8 reference
// holds — zeroes written into a backed frame must overwrite it.
func TestWriteDataMixedRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		at   Addr
		img  func(i int) byte
		n    int
	}{
		{"dense straddle", PageBytes - 7, func(i int) byte { return byte(i*31 + 1) }, 20},
		{"zero page then data", 3 * PageBytes, func(i int) byte {
			if i < PageBytes {
				return 0
			}
			return byte(i)
		}, 2*PageBytes + 9},
		{"data then zero tail", 6*PageBytes + 4000, func(i int) byte {
			if i < 50 {
				return 0xaa
			}
			return 0
		}, PageBytes + 200},
		{"zeroes over data", 0x10, func(int) byte { return 0 }, 64},
	}
	p, ref := NewPhysical(), NewPhysical()
	for _, a := range []Addr{0x10, 0x48, 7 * PageBytes} {
		p.Write64(a, 0xdeadbeefcafef00d)
		ref.Write64(a, 0xdeadbeefcafef00d)
	}
	for _, tc := range cases {
		img := make([]byte, tc.n)
		for i := range img {
			img[i] = tc.img(i)
		}
		p.WriteData(tc.at, img)
		for i, v := range img {
			ref.Write8(tc.at+Addr(i), v)
		}
		if got := p.ReadData(tc.at, tc.n); string(got) != string(img) {
			t.Fatalf("%s: ReadData differs from the written image", tc.name)
		}
	}
	lo, hi := Addr(0), Addr(9*PageBytes)
	if string(p.ReadData(lo, int(hi-lo))) != string(ref.ReadData(lo, int(hi-lo))) {
		t.Fatal("page-wise WriteData and byte-wise Write8 disagree")
	}
}

func TestPhysicalWord64Property(t *testing.T) {
	f := func(addr uint32, v uint64) bool {
		p := NewPhysical()
		a := Addr(addr)
		p.Write64(a, v)
		return p.Read64(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(Addr(0x1043)) != 0x1040 {
		t.Fatalf("LineAddr = %#x", LineAddr(Addr(0x1043)))
	}
	if LineAddr(VAddr(63)) != 0 {
		t.Fatal("LineAddr(63) should be 0")
	}
	if LineAddr(VAddr(64)) != 64 {
		t.Fatal("LineAddr(64) should be 64")
	}
}

func TestPageAndFrameNum(t *testing.T) {
	if PageNum(VAddr(0x3456)) != 3 {
		t.Fatalf("PageNum = %d", PageNum(VAddr(0x3456)))
	}
	if FrameNum(Addr(0x3456)) != 3 {
		t.Fatalf("FrameNum = %d", FrameNum(Addr(0x3456)))
	}
}

func TestDRAMRowHitFasterThanMiss(t *testing.T) {
	s := event.NewScheduler()
	d := NewDRAM(s, DefaultDRAMConfig())
	first := d.Access(0x0)
	if first != event.Cycle(DefaultDRAMConfig().RowMissLatency) {
		t.Fatalf("first access latency = %d, want row miss %d", first, DefaultDRAMConfig().RowMissLatency)
	}
	// Access to the same row but a different line in the same bank:
	// bank is line-interleaved so add Banks*LineBytes to stay in bank 0.
	cfg := DefaultDRAMConfig()
	a2 := Addr(uint64(cfg.Banks) * LineBytes)
	done2 := d.Access(a2)
	// The second access starts when bank 0 frees, then takes a row hit.
	want := first + cfg.RowHitLatency
	if done2 != want {
		t.Fatalf("second access done = %d, want %d", done2, want)
	}
	if d.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", d.RowHits)
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	s := event.NewScheduler()
	cfg := DefaultDRAMConfig()
	d := NewDRAM(s, cfg)
	// Two accesses to different banks overlap except for the burst gap.
	d1 := d.Access(0)
	d2 := d.Access(LineBytes) // next line, different bank
	if d2 >= d1+cfg.RowMissLatency {
		t.Fatalf("different banks did not overlap: d1=%d d2=%d", d1, d2)
	}
	if d2 != cfg.BurstGap+cfg.RowMissLatency {
		t.Fatalf("d2 = %d, want %d", d2, cfg.BurstGap+cfg.RowMissLatency)
	}
}

func TestDRAMRowConflictEvictsRow(t *testing.T) {
	s := event.NewScheduler()
	cfg := DefaultDRAMConfig()
	d := NewDRAM(s, cfg)
	d.Access(0)
	// Same bank, different row.
	other := Addr(cfg.RowBytes * uint64(cfg.Banks))
	if d.bankOf(other) != d.bankOf(0) {
		t.Fatal("test setup: expected same bank")
	}
	d.Access(other)
	// Back to row 0: should be a miss again.
	before := d.RowHits
	d.Access(0)
	if d.RowHits != before {
		t.Fatal("row should have been closed by conflicting access")
	}
}

func TestDRAMRowHitRate(t *testing.T) {
	s := event.NewScheduler()
	d := NewDRAM(s, DefaultDRAMConfig())
	if d.RowHitRate() != 0 {
		t.Fatal("empty DRAM should report 0 hit rate")
	}
	d.Access(0)
	d.Access(Addr(uint64(DefaultDRAMConfig().Banks) * LineBytes))
	if d.RowHitRate() != 0.5 {
		t.Fatalf("RowHitRate = %v, want 0.5", d.RowHitRate())
	}
}
