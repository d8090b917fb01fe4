package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/muontrap"
)

// goldenPath is the security matrix the regression suite pins, relative
// to the checkout root.
const goldenPath = "muontrap/testdata/security_matrix.golden"

// securitySweep runs every attack scenario under every security-matrix
// scheme with every candidate secret (13 scenarios, 7 schemes, 574
// trials) on two goroutines. The canonical-secret trials are the
// security matrix's cells: they go through Runner.Sweep with a fresh disk
// cache, and are requested again after the in-process memo is dropped;
// every other trial calls attack.RunSecret.
type securitySweep struct {
	env     *env
	schemes []defense.Scheme
	scens   []attack.Scenario
	trials  []trial // in seed order
	golden  string
}

type trial struct {
	sc     attack.Scenario
	sch    defense.Scheme
	secret int
}

func (t trial) canonical() bool { return t.secret == t.sc.Secret }

func (t trial) key() string { return fmt.Sprintf("%s/%s/%d", t.sc.Name, t.sch.Name, t.secret) }

func (t trial) sweep() muontrap.Sweep {
	return muontrap.Sweep{
		Attacks: []muontrap.AttackName{muontrap.AttackName(t.sc.Name)},
		Schemes: []muontrap.Scheme{muontrap.Scheme(t.sch.Name)},
	}
}

func newSecuritySweep(e *env) bench {
	s := &securitySweep{env: e, schemes: defense.SecurityComparison(), scens: attack.Scenarios()}
	for _, sc := range s.scens {
		for _, sch := range s.schemes {
			for secret := 0; secret < sc.Candidates; secret++ {
				s.trials = append(s.trials, trial{sc, sch, secret})
			}
		}
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	rng.Shuffle(len(s.trials), func(i, j int) { s.trials[i], s.trials[j] = s.trials[j], s.trials[i] })
	return s
}

// prepare loads the golden matrix and hashes the benchmark binary (the
// disk cache keys every cell by it).
func (s *securitySweep) prepare(ctx context.Context) error {
	b, err := os.ReadFile(filepath.Join(s.env.root, goldenPath))
	if err != nil {
		return err
	}
	s.golden = string(b)
	figures.BinFingerprint()
	return nil
}

func (s *securitySweep) close() {}

func (s *securitySweep) iterate(ctx context.Context, tr *tracer) (*iteration, error) {
	dir, err := s.env.freshDir("cache")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	r := muontrap.NewRunner(muontrap.WithWorkers(2), muontrap.WithCacheDir(dir))
	it := &iteration{results: make(map[string]any), measured: make(map[string]float64)}
	n := len(s.trials)
	out := make([]attack.Result, n)
	errs := make([]error, n)
	it.cold = make([]time.Duration, n)

	// cell runs one trial: a matrix cell through the Runner, or any other
	// secret straight through the attack layer.
	cell := func(t trial) (attack.Result, error) {
		if !t.canonical() {
			return attack.RunSecret(t.sc, t.sch, t.secret), nil
		}
		res, err := first(r.Sweep(ctx, t.sweep()))
		if err != nil {
			return attack.Result{}, err
		}
		v, ok := res.AttackVerdict()
		if !ok {
			return attack.Result{}, fmt.Errorf("cell carries no verdict")
		}
		return v, nil
	}

	cpu0, t0 := selfCPU(), time.Now()
	pool(2, n, func(i int) {
		t := s.trials[i]
		id := tr.id()
		start := time.Now()
		out[i], errs[i] = cell(t)
		end := time.Now()
		tr.add(id, 0, t.key(), "attack.trial", false, start, end)
		it.cold[i] = end.Sub(start)
	})
	var canon []int
	for i, t := range s.trials {
		if t.canonical() {
			canon = append(canon, i)
		}
	}
	m := len(canon)
	again := make([]attack.Result, reemitPasses*m)
	againErr := make([]error, reemitPasses*m)
	it.hits = make([]time.Duration, reemitPasses*m)
	it.reemit = timePasses(func(p int) {
		figures.ResetRunCache()
		pool(2, m, func(j int) {
			t := s.trials[canon[j]]
			id := tr.id()
			start := time.Now()
			again[p*m+j], againErr[p*m+j] = cell(t)
			end := time.Now()
			tr.add(id, 0, t.key(), "reemit", false, start, end)
			it.hits[p*m+j] = end.Sub(start)
		})
	})
	it.wall, it.cpu = time.Since(t0), selfCPU()-cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	it.attempted = n + len(again)
	it.measured["figures.cells"] = float64(m + len(again))
	verdicts := make(map[string]string)
	for i, t := range s.trials {
		if errs[i] != nil {
			it.fail("%s: %v", t.key(), errs[i])
			continue
		}
		it.results[t.key()] = out[i]
		if out[i].Succeeded {
			it.measured["attack.leaks"]++
		}
		if t.canonical() {
			verdicts[t.sc.Name+"/"+t.sch.Name] = figures.SecurityVerdict(out[i])
		}
	}
	for j := range again {
		i := canon[j%m]
		t := s.trials[i]
		switch {
		case againErr[j] != nil:
			it.fail("%s re-emit: %v", t.key(), againErr[j])
		case errs[i] == nil && figures.SecurityVerdict(again[j]) != figures.SecurityVerdict(out[i]):
			it.fail("%s: re-emitted verdict differs from the run one", t.key())
		}
	}
	mismatches := s.checkGolden(it, verdicts)
	it.measured["attack.verdict_mismatches"] = float64(mismatches)
	it.measured["attack.trials"] = float64(n)
	it.extra = append(it.extra, fmt.Sprintf("security matrix: %d leaks in %d trials; %d canonical verdicts differ from %s",
		int(it.measured["attack.leaks"]), n, mismatches, goldenPath))
	return it, nil
}

// checkGolden compares the canonical-secret verdicts with the golden
// matrix, cell by cell, and returns how many differ; each differing cell
// is a failed operation.
func (s *securitySweep) checkGolden(it *iteration, verdicts map[string]string) int {
	lines := strings.Split(strings.TrimRight(s.golden, "\n"), "\n")
	if len(lines) != len(s.scens)+2 {
		it.fail("%s: %d lines, want %d", goldenPath, len(lines), len(s.scens)+2)
		return len(s.scens) * len(s.schemes)
	}
	header := strings.Fields(lines[1])[1:]
	mismatches := 0
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) != len(header)+1 {
			it.fail("%s: malformed row %q", goldenPath, line)
			mismatches += len(header)
			continue
		}
		for j, sch := range header {
			key := f[0] + "/" + sch
			if got, ok := verdicts[key]; ok && got != f[j+1] {
				it.fail("%s: verdict %s, golden %s", key, got, f[j+1])
				mismatches++
			}
		}
	}
	return mismatches
}

func (s *securitySweep) layers(it *iteration, spans []span) map[string]float64 {
	l := summarise(durations(spans, "attack.trial"))
	out := map[string]float64{
		"attack.trials":             it.measured["attack.trials"],
		"attack.trial_p50_ms":       l.P50ms,
		"attack.trial_tail_ms":      l.Tailms,
		"attack.leaks":              it.measured["attack.leaks"],
		"attack.verdict_mismatches": it.measured["attack.verdict_mismatches"],
		"figures.cells":             it.measured["figures.cells"],
		"host.cpu_per_wall":         float64(it.cpu) / float64(it.wall),
	}
	return out
}
