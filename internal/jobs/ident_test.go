package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/figures"
	"repro/muontrap"
)

// TestCanonicalKeyStringPinned pins the pre-hash key string byte for
// byte: it is the identity of every stored result, so any drift would
// silently orphan the content-keyed stores of both daemons. The empty
// scheme normalizes to insecure, a zero cycle bound resolves to the
// library default, and the simulator fingerprint is the only part that
// varies by build.
func TestCanonicalKeyStringPinned(t *testing.T) {
	id := Identity{CheckpointEvery: 2000, Warmup: 100}
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer", "mcf"},
		Schemes:   []muontrap.Scheme{"", "muontrap"},
		Scales:    []float64{0.05, 0.1},
		Attacks:   []muontrap.AttackName{"spectre"},
	}
	want := "sweep|v1|bin=" + figures.BinFingerprint() +
		"|wl=hmmer,mcf|atk=spectre|sch=insecure,muontrap|scales=0.05,0.1|max=40000000|warm=100|every=2000"
	if got := id.canonical(sw); got != want {
		t.Fatalf("canonical key string drifted:\ngot:  %s\nwant: %s", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got := id.Key(sw); got != hex.EncodeToString(sum[:]) || !ValidKey(got) {
		t.Fatalf("Key = %s, want the SHA-256 of the canonical string", got)
	}
	// A scale-less sweep resolves against the identity's default scale.
	scaleless := muontrap.Sweep{Workloads: []muontrap.Workload{"hmmer"}, Schemes: []muontrap.Scheme{"insecure"}}
	if got := (Identity{Scale: 0.2}).canonical(scaleless); got != "sweep|v1|bin="+figures.BinFingerprint()+
		"|wl=hmmer|atk=|sch=insecure|scales=0.2|max=40000000|warm=0|every=0" {
		t.Fatalf("scale-less canonical string = %s", got)
	}
	if _, cells, err := sw.Cells(id.Scale, id.MaxCycles); err != nil || len(cells) != 2*2*2+1*2 {
		t.Fatalf("cells = %d (%v), want 10", len(cells), err)
	}
}
