package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBinaryMatrixMatchesGolden is the e2e smoke: the attacks binary's
// default output must be byte for byte the pinned golden security matrix
// — one renderer, one artifact, no drift between the CLI and the table
// the regression suite pins.
func TestBinaryMatrixMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full corpus")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "muontrap", "testdata", "security_matrix.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "attacks")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/attacks").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stdout, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("attacks: %v", err)
	}
	if string(stdout) != string(want) {
		t.Fatalf("binary matrix differs from the golden:\nbinary:\n%s\ngolden:\n%s", stdout, want)
	}
}
