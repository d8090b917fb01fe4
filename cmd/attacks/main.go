// Command attacks runs the attack-scenario corpus against the compared
// protection schemes and prints the security matrix: scenario (rows) vs
// scheme (columns), each cell a leak(value,signal) or block(signal)
// verdict. It prints muontrap.SecurityMatrixResult.Render, the one
// renderer, so its bytes match the pinned golden artifact.
//
// Usage:
//
//	attacks                          # full security matrix
//	attacks -cache-dir .cache        # matrix with disk-cached cells
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/muontrap"
)

func main() {
	cacheDir := flag.String("cache-dir", "", "disk cache directory for matrix cells")
	flag.Parse()

	r := muontrap.NewRunner(muontrap.WithCacheDir(*cacheDir))
	m, err := r.SecurityMatrix(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Print(m.Render())
}
