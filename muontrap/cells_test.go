package muontrap_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/figures"
	"repro/internal/fleet"
	"repro/muontrap"
	"repro/muontrap/client"
)

// TestSweepExpansionAgrees holds the Runner, the jobs front-end and the
// fleet sharder to one expansion of a mixed sweep — a repeated workload,
// the empty-scheme alias next to a named scheme, two scales and an
// attack: the same cells in the same order, the same count, fleet cell
// keys pinned byte for byte (a drift would orphan every journaled shard
// map), and the same sentinel for every malformed input.
func TestSweepExpansionAgrees(t *testing.T) {
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer", "mcf", "hmmer"},
		Schemes:   []muontrap.Scheme{"", "muontrap"},
		Scales:    []float64{0.01, 0.02},
		Attacks:   []muontrap.AttackName{"spectre"},
	}
	// Declaration order: workloads × schemes × scales, then attacks ×
	// schemes.
	var want []muontrap.Cell
	for _, w := range []muontrap.Workload{"hmmer", "mcf", "hmmer"} {
		for _, s := range []muontrap.Scheme{"insecure", "muontrap"} {
			want = append(want, muontrap.Cell{Workload: w, Scheme: s, Scale: 0.01}, muontrap.Cell{Workload: w, Scheme: s, Scale: 0.02})
		}
	}
	want = append(want, muontrap.Cell{Attack: "spectre", Scheme: "insecure"}, muontrap.Cell{Attack: "spectre", Scheme: "muontrap"})
	if _, cells, err := sw.Cells(0, 0); err != nil || fmt.Sprint(cells) != fmt.Sprint(want) {
		t.Fatalf("Cells = %v (%v), want %v", cells, err, want)
	}

	res, err := muontrap.NewRunner().Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range res.Runs {
		got := muontrap.Cell{Workload: run.Workload, Attack: run.Attack, Scheme: run.Scheme, Scale: run.Scale}
		if got != want[i] {
			t.Fatalf("Runner.Sweep run %d is %+v, want %+v", i, got, want[i])
		}
	}
	if len(res.Runs) != len(want) {
		t.Fatalf("Runner.Sweep returned %d runs, want %d", len(res.Runs), len(want))
	}

	// A worker-less coordinator validates, keys and shards, and never
	// dispatches.
	dir := t.TempDir()
	co, err := fleet.New(fleet.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(co)
	t.Cleanup(func() {
		hs.Close()
		co.Close()
	})
	c := client.New(hs.URL)
	job, err := c.Submit(context.Background(), sw)
	if err != nil || job.Total != len(want) {
		t.Fatalf("front-end Total = %d (%v), want %d", job.Total, err, len(want))
	}
	b, err := os.ReadFile(filepath.Join(dir, "fleet", "jobs", job.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var entry struct{ Cells []json.RawMessage }
	if err := json.Unmarshal(b, &entry); err != nil {
		t.Fatal(err)
	}
	key := func(c muontrap.Cell) string {
		scale := "0.15" // attack cells key the identity's default scale
		if c.Workload != "" {
			scale = strconv.FormatFloat(c.Scale, 'g', -1, 64)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("sweep|v1|bin=%s|wl=%s|atk=%s|sch=%s|scales=%s|max=40000000|warm=0|every=0",
			figures.BinFingerprint(), c.Workload, c.Attack, c.Scheme, scale)))
		return hex.EncodeToString(sum[:])
	}
	filled := make([]int, len(want))
	for _, raw := range entry.Cells {
		rec, err := fleet.DecodeCellRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range rec.Indexes {
			if rec.Key != key(want[idx]) {
				t.Fatalf("shard %s fills index %d, whose cell %+v keys as %s", rec.Key, idx, want[idx], key(want[idx]))
			}
			filled[idx]++
		}
	}
	if len(entry.Cells) != 10 || fmt.Sprint(filled) != fmt.Sprint([]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Fatalf("%d shards fill the declaration indexes %v times; want 10 shards filling each once", len(entry.Cells), filled)
	}

	sentinels := []error{muontrap.ErrUnknownWorkload, muontrap.ErrUnknownAttack, muontrap.ErrUnknownScheme}
	for _, tc := range []struct {
		name string
		sw   muontrap.Sweep
		want error // nil: rejected without a sentinel
	}{
		{"empty", muontrap.Sweep{}, nil},
		{"no schemes", muontrap.Sweep{Workloads: []muontrap.Workload{"hmmer"}}, nil},
		{"unknown workload", muontrap.Sweep{Workloads: []muontrap.Workload{"nope"}, Schemes: []muontrap.Scheme{"muontrap"}}, muontrap.ErrUnknownWorkload},
		{"empty workload", muontrap.Sweep{Workloads: []muontrap.Workload{""}, Schemes: []muontrap.Scheme{"muontrap"}}, muontrap.ErrUnknownWorkload},
		{"unknown scheme", muontrap.Sweep{Workloads: []muontrap.Workload{"hmmer"}, Schemes: []muontrap.Scheme{"nope"}}, muontrap.ErrUnknownScheme},
		{"unknown attack", muontrap.Sweep{Attacks: []muontrap.AttackName{"nope"}, Schemes: []muontrap.Scheme{"muontrap"}}, muontrap.ErrUnknownAttack},
		{"workload before scheme", muontrap.Sweep{Workloads: []muontrap.Workload{"nope"}, Schemes: []muontrap.Scheme{"nope"}}, muontrap.ErrUnknownWorkload},
		{"attack before scheme", muontrap.Sweep{
			Workloads: []muontrap.Workload{"hmmer"}, Attacks: []muontrap.AttackName{"nope"}, Schemes: []muontrap.Scheme{"nope"},
		}, muontrap.ErrUnknownAttack},
	} {
		_, runErr := muontrap.NewRunner().Sweep(context.Background(), tc.sw)
		_, frontErr := c.Submit(context.Background(), tc.sw)
		if runErr == nil || frontErr == nil {
			t.Fatalf("%s: Runner err %v, front-end err %v; want both rejected", tc.name, runErr, frontErr)
		}
		for _, s := range sentinels {
			if errors.Is(runErr, s) != (s == tc.want) || errors.Is(frontErr, s) != (s == tc.want) {
				t.Fatalf("%s: Runner err %v, front-end err %v; want sentinel %v", tc.name, runErr, frontErr, tc.want)
			}
		}
	}
}
