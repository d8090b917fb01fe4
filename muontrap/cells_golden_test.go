package muontrap_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/muontrap"
)

// The cell-level golden. Every workload under insecure, the five paper
// comparison schemes and SafeBet, at scale 0.05, is pinned by cycles,
// committed count and every counter, one line per cell. A pipeline
// rewrite that claims to preserve timing must leave this file
// byte-identical. Regenerate deliberately with:
//
//	go test ./muontrap -run TestGoldenCellMatrix -update-cells

var updateCells = flag.Bool("update-cells", false,
	"rewrite testdata/cells.golden from the current simulator")

const goldenCellsPath = "testdata/cells.golden"

// goldenCellSchemes is the scheme column set: the insecure baseline, the
// paper's comparison schemes (Fig. 3/4) and SafeBet.
var goldenCellSchemes = []muontrap.Scheme{
	"insecure", "muontrap",
	"invisispec-spectre", "invisispec-future",
	"stt-spectre", "stt-future",
	"safebet",
}

// renderCell formats one run as "workload scheme cycles=C committed=N"
// followed by every counter as name=value in name order.
func renderCell(r muontrap.RunResult) string {
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s cycles=%d committed=%d", r.Workload, r.Scheme, r.Cycles, r.Instructions)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%d", k, r.Counters[k])
	}
	return b.String()
}

// cellDiff names the fields that differ between two renderings of the
// same cell.
func cellDiff(got, want string) string {
	gf, wf := strings.Fields(got), strings.Fields(want)
	var out []string
	for i := 0; i < len(gf) || i < len(wf); i++ {
		var g, w string
		if i < len(gf) {
			g = gf[i]
		}
		if i < len(wf) {
			w = wf[i]
		}
		if g != w {
			out = append(out, fmt.Sprintf("got %s want %s", g, w))
		}
	}
	return strings.Join(out, "; ")
}

func TestGoldenCellMatrix(t *testing.T) {
	sw := muontrap.Sweep{
		Workloads: muontrap.Workloads(),
		Schemes:   goldenCellSchemes,
		Scales:    []float64{0.05},
	}
	res, err := muontrap.NewRunner().Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := 33 * len(goldenCellSchemes); len(res.Runs) != want {
		t.Fatalf("sweep returned %d cells, want %d", len(res.Runs), want)
	}
	lines := make([]string, len(res.Runs))
	for i, r := range res.Runs {
		lines[i] = renderCell(r)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateCells {
		if err := os.WriteFile(goldenCellsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenCellsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wl) != len(lines) {
		t.Fatalf("golden has %d cells, run has %d; rerun with -update-cells if intended", len(wl), len(lines))
	}
	var b strings.Builder
	for i, g := range lines {
		if g != wl[i] {
			f := strings.Fields(g)
			fmt.Fprintf(&b, "%s/%s: %s\n", f[0], f[1], cellDiff(g, wl[i]))
		}
	}
	t.Fatalf("cell matrix deviates from %s; if the change is intended, rerun with -update-cells.\n%s",
		goldenCellsPath, b.String())
}
