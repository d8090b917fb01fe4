package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/figures"
)

// TestBinaryMatrixMatchesFigures is the e2e smoke: the attacks binary's
// default output must be byte-for-byte the matrix the figures executor
// renders in-process — one renderer, one artifact, no drift between the
// CLI and the pinned golden table.
func TestBinaryMatrixMatchesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full corpus")
	}
	bin := filepath.Join(t.TempDir(), "attacks")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/attacks").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stdout, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("attacks: %v", err)
	}

	want, err := figures.SecurityMatrix(context.Background(),
		defense.SecurityComparison(), attack.Scenarios(), figures.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(stdout) != want.Render() {
		t.Fatalf("binary matrix differs from the figures-level matrix:\nbinary:\n%s\nfigures:\n%s",
			stdout, want.Render())
	}
}
