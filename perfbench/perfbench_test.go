package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestTailPermille(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int // 0: no tail
	}{
		{10, 0},
		{19, 0},   // the median would leave 9 samples above it
		{20, 500}, // rank 10 leaves 10
		{39, 500},
		{40, 750}, // rank 30 leaves 10; p90 would leave 4
		{99, 750},
		{100, 900},
		{156, 900},
		{574, 950}, // p99 (rank 569) would leave 5
		{999, 950},
		{1000, 990},
		{10000, 999},
	} {
		got, ok := tailPermille(tc.n)
		if !ok {
			got = 0
		}
		if got != tc.want {
			t.Errorf("tailPermille(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, float64(got)/10, tc.n-rank(got, tc.n))
		}
	}
}

func TestSummarise(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	l := summarise(ds)
	if l.N != 100 || l.P50ms != 50.5 || l.TailPct != 90 || l.Tailms != 90 {
		t.Fatalf("summarise(1..100 ms) = %+v, want n=100 p50=50.5 p90=90", l)
	}
	if ds[0] != 100*time.Millisecond {
		t.Fatal("summarise reordered its input")
	}
	if l := summarise(ds[:15]); l.TailPct != 0 || l.Tailms != 0 {
		t.Fatalf("15 samples reported a tail: %+v", l)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		// Nested children: overlapping intervals count once, and the
		// part of a child outside its parent does not count.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// Beside children subtract their whole duration.
		{ID: 5, Parent: 1, Name: "c", Start: -40, End: -25, Beside: true},
		// A beside child's own beside child is subtracted from it, not
		// from the cell.
		{ID: 6, Parent: 5, Name: "d", Start: -38, End: -33, Beside: true},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10 - 15, 2: 20, 3: 30, 4: 30, 5: 10, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := layerTimes(spans)
	if layers["a"] != 50 || layers["cell"] != 35 {
		t.Errorf("layer times %v: want a=50 cell=35", layers)
	}
	// Children covering more than the parent never make it negative.
	over := []span{
		{ID: 1, Name: "p", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "y", Start: 0, End: 5, Beside: true},
	}
	if got := selfTimes(over)[1]; got != 0 {
		t.Errorf("over-covered self time = %d, want 0", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	have := slices.Sorted(maps.Keys(workloads))
	if slices.Sort(names); !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestMatrixTracedMatchesUntraced runs a tiny warm-started matrix once
// untraced and once traced: the traced cells must reproduce the untraced
// results, pass every output check, and yield each warm-path layer.
func TestMatrixTracedMatchesUntraced(t *testing.T) {
	m := newMatrix(&env{seed: 1, work: t.TempDir()}, workload.SPEC2006()[:2], 0.02, 2000, 1, false)
	ctx := context.Background()
	if err := m.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	plain, err := m.iterate(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := m.iterate(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []*iteration{plain, traced} {
		if len(it.problems) > 0 {
			t.Fatalf("failed checks: %v", it.problems)
		}
	}
	if p := compareResults(plain, traced); len(p) > 0 {
		t.Fatalf("traced iteration differs: %v", p)
	}
	layers := m.layers(traced, tr.snapshot())
	for _, k := range []string{"workload.build_ms", "sim.setup_ms", "sim.run_ms", "sim.warmup_ms",
		"checkpoint.capture_ms", "checkpoint.encode_ms", "checkpoint.decode_ms", "sim.restore_ms", "checkpoint.bytes", "cpu.committed"} {
		if layers[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, layers[k])
		}
	}
	if want := float64(len(m.cells) * (1 + reemitPasses)); layers["figures.cells"] != want {
		t.Errorf("figures.cells = %v, want %v", layers["figures.cells"], want)
	}
}
