package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/muontrap"
)

// matrix is a figure matrix driven through muontrap.Runner: every kernel
// under the insecure baseline and the five comparison schemes, one cell
// per Runner.Sweep call from two goroutines, each iteration from reset
// with empty modelled caches and a fresh disk cache. After the cold pass
// the in-process memo is dropped and every cell is requested again, so
// the disk cache re-emits it.
type matrix struct {
	env     *env
	specs   []workload.Spec
	scale   float64
	warmup  int // instructions fast-forwarded per kernel (0 = from reset)
	workers int
	// repeats is how many seed-chosen cells are re-simulated through
	// Runner.Run into refs.
	repeats int
	refs    map[string]muontrap.Result
	cells   []simCell // in seed order
	// flushes, when set, requires MuonTrap's runs to take domain-switch
	// flushes.
	flushes bool
}

type simCell struct {
	spec   workload.Spec
	scheme defense.Scheme
}

func (c simCell) key() string { return c.spec.Name + "/" + c.scheme.Name }

func (c simCell) sweep() muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{muontrap.Workload(c.spec.Name)},
		Schemes:   []muontrap.Scheme{muontrap.Scheme(c.scheme.Name)},
	}
}

// newSpecCold is the Fig. 3 matrix: 26 SPEC kernels × 6 schemes on one
// core, from reset.
func newSpecCold(e *env) bench {
	return newMatrix(e, workload.SPEC2006(), 0.15, 0, 3, false)
}

// newParsecFullsys is the Fig. 4 matrix: 7 Parsec kernels × 6 schemes on
// four cores under the full-system OS timer, every run forked from a
// 50k-instruction warm snapshot. At scale 0.3 the longest runs cross the
// 150k-cycle timer, so MuonTrap takes domain-switch flushes.
func newParsecFullsys(e *env) bench {
	return newMatrix(e, workload.Parsec(), 0.3, 50_000, 2, true)
}

func newMatrix(e *env, specs []workload.Spec, scale float64, warmup, repeats int, flushes bool) *matrix {
	schemes := append([]defense.Scheme{defense.Insecure()}, defense.Comparison()...)
	m := &matrix{env: e, specs: specs, scale: scale, warmup: warmup, workers: 2,
		repeats: repeats, flushes: flushes}
	for _, sp := range specs {
		for _, sch := range schemes {
			m.cells = append(m.cells, simCell{sp, sch})
		}
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	rng.Shuffle(len(m.cells), func(i, j int) { m.cells[i], m.cells[j] = m.cells[j], m.cells[i] })
	// Largest working sets (the longest cells) first, so both goroutines
	// run out of work together instead of one finishing a long cell
	// alone; the seed orders the cells within a working-set size.
	sort.SliceStable(m.cells, func(i, j int) bool {
		return m.cells[i].spec.WorkingSetKB > m.cells[j].spec.WorkingSetKB
	})
	return m
}

// prepare hashes the benchmark binary (the disk cache keys every result
// by it) and checks the matrix's identifiers, as a figure run does
// before its first cell.
func (m *matrix) prepare(ctx context.Context) error {
	figures.BinFingerprint()
	for _, c := range m.cells {
		if _, err := muontrap.ParseWorkload(c.spec.Name); err != nil {
			return err
		}
		if _, err := muontrap.ParseScheme(c.scheme.Name); err != nil {
			return err
		}
	}
	return nil
}

func (m *matrix) close() {}

func (m *matrix) runner(dir string) *muontrap.Runner {
	return muontrap.NewRunner(
		muontrap.WithWorkers(m.workers),
		muontrap.WithScale(m.scale),
		muontrap.WithWarmup(m.warmup),
		muontrap.WithCacheDir(dir),
	)
}

// warmSide holds one kernel's warm-up path, measured beside the first
// cell of that kernel a traced iteration starts.
type warmSide struct {
	once sync.Once
	snap *checkpoint.Snapshot
	enc  []byte
	hit  bool // claimed by the first re-emitted cell
}

func (m *matrix) iterate(ctx context.Context, tr *tracer) (*iteration, error) {
	if m.refs == nil {
		if err := m.reference(ctx); err != nil {
			return nil, err
		}
	}
	dir, err := m.env.freshDir("cache")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	figures.ResetRunCache()
	defer figures.ResetRunCache() // the memo must not leak into the next iteration
	r := m.runner(dir)
	it := &iteration{results: make(map[string]any), measured: make(map[string]float64)}
	n := len(m.cells)
	cold := make([]muontrap.RunResult, n)
	hits := make([]muontrap.RunResult, reemitPasses*n)
	coldErr := make([]error, n)
	hitErr := make([]error, reemitPasses*n)
	it.cold = make([]time.Duration, n)
	it.hits = make([]time.Duration, reemitPasses*n)

	var sideMu sync.Mutex
	sides := make(map[string]*warmSide)
	side := func(name string) *warmSide {
		sideMu.Lock()
		defer sideMu.Unlock()
		if sides[name] == nil {
			sides[name] = &warmSide{}
		}
		return sides[name]
	}

	cpu0, t0 := selfCPU(), time.Now()
	pool(m.workers, n, func(i int) {
		c := m.cells[i]
		id := tr.id()
		if tr != nil {
			m.besideCold(tr, id, c, side(c.spec.Name))
		}
		start := time.Now()
		res, err := r.Sweep(ctx, c.sweep())
		end := time.Now()
		tr.add(id, 0, c.key(), "cell", false, start, end)
		it.cold[i] = end.Sub(start)
		cold[i], coldErr[i] = first(res, err)
	})
	// Re-emit the matrix several times, each from a dropped memo, so one
	// pause cannot set the figure.
	it.reemit = timePasses(func(p int) {
		figures.ResetRunCache()
		pool(m.workers, n, func(i int) {
			c := m.cells[i]
			id := tr.id()
			if tr != nil && m.warmup > 0 {
				ws := side(c.spec.Name)
				sideMu.Lock()
				claim := !ws.hit
				ws.hit = true
				sideMu.Unlock()
				if claim {
					// The first request of a kernel loads its warm
					// snapshot from the disk store, which decodes it.
					tr.time(id, c.key(), "checkpoint.decode", true, func() { _, _ = checkpoint.Decode(ws.enc) })
				}
			}
			start := time.Now()
			res, err := r.Sweep(ctx, c.sweep())
			end := time.Now()
			tr.add(id, 0, c.key(), "reemit", false, start, end)
			it.hits[p*n+i] = end.Sub(start)
			hits[p*n+i], hitErr[p*n+i] = first(res, err)
		})
	})
	it.wall, it.cpu = time.Since(t0), selfCPU()-cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, ws := range sides {
		it.measured["checkpoint.bytes"] += float64(len(ws.enc))
	}
	it.attempted = (1 + reemitPasses) * n
	it.measured["figures.cells"] = float64(it.attempted)
	byCell := make(map[string]muontrap.Result, n)
	for i, c := range m.cells {
		if coldErr[i] != nil {
			it.fail("%s: %v", c.key(), coldErr[i])
			continue
		}
		for p := 0; p < reemitPasses; p++ {
			switch j := p*n + i; {
			case hitErr[j] != nil:
				it.fail("%s re-emit: %v", c.key(), hitErr[j])
			case !sameResult(cold[i].Result, hits[j].Result):
				it.fail("%s: re-emitted result differs from the simulated one", c.key())
			}
		}
		if ref, ok := m.refs[c.key()]; ok && !sameResult(ref, cold[i].Result) {
			it.fail("%s: differs from its in-process Runner.Run re-simulation", c.key())
		}
		byCell[c.key()] = cold[i].Result
		it.results[c.key()] = cold[i].Result
		addCounters(it.measured, cold[i].Result)
		it.insts += cold[i].Instructions
		it.cycles += cold[i].Cycles
	}
	m.check(it, byCell)
	return it, nil
}

// besideCold times, next to a cold cell's Runner.Sweep call, the layer
// functions that call runs inside: building the program and the machine
// and, for a warm-started kernel's first cell, the warm-up, snapshot
// capture and encoding; every warm-started cell also restores.
func (m *matrix) besideCold(tr *tracer, id int64, c simCell, ws *warmSide) {
	g := c.key()
	buildSystem := func(sch defense.Scheme) *sim.System {
		var s *sim.System
		bid := tr.time(id, g, "sim.build_system", true, func() { s = figures.BuildSystem(c.spec, sch, m.scale) })
		tr.time(bid, g, "workload.build", true, func() { workload.Build(c.spec, m.scale) })
		return s
	}
	sys := buildSystem(c.scheme)
	if m.warmup == 0 {
		return
	}
	ws.once.Do(func() {
		w := buildSystem(defense.Insecure())
		tr.time(id, g, "sim.warmup", true, func() { w.Warmup(m.warmup) })
		tr.time(id, g, "checkpoint.capture", true, func() { ws.snap, _ = w.Checkpoint() })
		if ws.snap != nil {
			tr.time(id, g, "checkpoint.encode", true, func() { ws.enc = ws.snap.Encode() })
		}
	})
	if ws.snap != nil {
		tr.time(id, g, "sim.restore", true, func() { _ = sys.RestoreSnapshot(ws.snap) })
	}
}

// check applies the matrix's output checks to one iteration's results.
func (m *matrix) check(it *iteration, byCell map[string]muontrap.Result) {
	var ratios []float64
	var flushes uint64
	for _, sp := range m.specs {
		base, okB := byCell[sp.Name+"/insecure"]
		mt, okM := byCell[sp.Name+"/muontrap"]
		if okB && okM && base.Cycles > 0 {
			ratios = append(ratios, float64(mt.Cycles)/float64(base.Cycles))
		}
		flushes += sumCounter(mt.Counters, "flush.domain", true)
		if m.flushes {
			continue
		}
		// One core: defenses change timing, never the committed
		// instruction count.
		for _, c := range m.cells {
			if r, ok := byCell[c.key()]; ok && c.spec.Name == sp.Name && okB && r.Instructions != base.Instructions {
				it.fail("%s: committed %d instructions, insecure committed %d", c.key(), r.Instructions, base.Instructions)
			}
		}
	}
	if m.flushes && flushes == 0 {
		it.attempted++
		it.fail("muontrap took no domain-switch flushes: the runs never cross the OS timer")
	}
	if len(ratios) > 0 {
		it.slowdown = geomean(ratios)
	}
	if m.flushes {
		it.extra = append(it.extra, fmt.Sprintf("muontrap domain-switch flushes: %d", flushes))
	}
}

// reference re-simulates the seed-chosen repeat cells through
// Runner.Run, in process and before the first timed iteration; every
// iteration must reproduce these results bit for bit.
func (m *matrix) reference(ctx context.Context) error {
	figures.ResetRunCache()
	r := muontrap.NewRunner(muontrap.WithScale(m.scale), muontrap.WithWarmup(m.warmup))
	m.refs = make(map[string]muontrap.Result, m.repeats)
	for _, c := range m.cells[len(m.cells)-m.repeats:] {
		res, err := r.Run(ctx, muontrap.RunSpec{Workload: muontrap.Workload(c.spec.Name), Scheme: muontrap.Scheme(c.scheme.Name)})
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		m.refs[c.key()] = res.Result
	}
	return nil
}

func (m *matrix) layers(it *iteration, spans []span) map[string]float64 {
	self := layerTimes(spans)
	var cellTotal time.Duration
	for _, d := range durations(spans, "cell") {
		cellTotal += d
	}
	out := counterLayers(it)
	run := self["cell"]
	out["workload.build_ms"] = ms(self["workload.build"])
	out["sim.setup_ms"] = ms(self["sim.build_system"])
	out["sim.setup_share"] = float64(self["sim.build_system"]) / float64(cellTotal)
	out["sim.run_ms"] = ms(run)
	out["sim.host_ns_per_cycle"] = float64(run) / float64(it.cycles)
	out["sim.host_ns_per_inst"] = float64(run) / float64(it.insts)
	out["host.cpu_per_wall"] = float64(it.cpu) / float64(it.wall)
	out["sim.warmup_ms"] = ms(self["sim.warmup"])
	out["checkpoint.capture_ms"] = ms(self["checkpoint.capture"])
	out["checkpoint.encode_ms"] = ms(self["checkpoint.encode"])
	out["checkpoint.decode_ms"] = ms(self["checkpoint.decode"])
	out["sim.restore_ms"] = ms(self["sim.restore"])
	out["figures.cells"] = it.measured["figures.cells"]
	out["checkpoint.bytes"] = it.measured["checkpoint.bytes"]
	return out
}

// first unwraps a one-cell sweep.
func first(res *muontrap.SweepResult, err error) (muontrap.RunResult, error) {
	if err != nil {
		return muontrap.RunResult{}, err
	}
	if len(res.Runs) != 1 {
		return muontrap.RunResult{}, fmt.Errorf("one-cell sweep returned %d runs", len(res.Runs))
	}
	return res.Runs[0], nil
}

// sameResult reports whether two runs are bit-identical.
func sameResult(a, b muontrap.Result) bool {
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || len(a.Counters) != len(b.Counters) {
		return false
	}
	for k, v := range a.Counters {
		if w, ok := b.Counters[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// counterMetrics maps per-layer metric names to simulator counters:
// per-core counters ("core0.l0d.hits", …) are summed over cores.
var counterMetrics = []struct {
	name, key string
	perCore   bool
}{
	{"cpu.committed", "committed", true},
	{"cpu.fetched", "fetched", true},
	{"cpu.squashed", "squashed", true},
	{"cpu.mispredicts", "mispredicts", true},
	{"cpu.stt_stalls", "stt_stalls", true},
	{"cpu.safebet_stalls", "safebet_stalls", true},
	{"core.l0d.hits", "l0d.hits", true},
	{"core.l0d.misses", "l0d.misses", true},
	{"core.l0d.evicted_uncommitted", "l0d.evicted_uncommitted", true},
	{"core.l0i.misses", "l0i.misses", true},
	{"core.flush.domain", "flush.domain", true},
	{"core.flush.misspec", "flush.misspec", true},
	{"core.commit.se_upgrades", "commit.se_upgrades", true},
	{"memsys.l1d.misses", "l1d.misses", true},
	{"memsys.l2.misses", "l2.misses", false},
	{"memsys.dram.accesses", "dram.accesses", false},
	{"memsys.ptwalks", "ptwalks", true},
	{"memsys.coh.filter_broadcasts", "coh.filter_broadcasts", false},
	{"memsys.coh.remote_downgrades", "coh.remote_downgrades", false},
	{"memsys.nack.retries", "nack.retries", true},
}

// sumCounter sums one counter of a run, over every core if perCore.
func sumCounter(c map[string]uint64, key string, perCore bool) uint64 {
	if !perCore {
		return c[key]
	}
	var n uint64
	for k, v := range c {
		if rest, ok := strings.CutPrefix(k, "core"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 && rest[i+1:] == key {
				n += v
			}
		}
	}
	return n
}

// addCounters adds one simulated run's counters to the modelled
// components' per-layer sums.
func addCounters(sums map[string]float64, r muontrap.Result) {
	for _, cm := range counterMetrics {
		sums[cm.name] += float64(sumCounter(r.Counters, cm.key, cm.perCore))
	}
}

// counterLayers returns the modelled components' per-layer sums of an
// iteration, with the share of fetched instructions that committed.
func counterLayers(it *iteration) map[string]float64 {
	out := make(map[string]float64)
	for _, cm := range counterMetrics {
		out[cm.name] = it.measured[cm.name]
	}
	if out["cpu.fetched"] > 0 {
		out["cpu.useful_fetch_ratio"] = out["cpu.committed"] / out["cpu.fetched"]
	}
	return out
}
