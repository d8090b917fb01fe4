// Command perfbench is the repository's benchmark: one command that runs
// one of four workloads against the simulator, the security matrix or the
// daemon/fleet, checks every output, and prints every metric by name with
// its unit. The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run alternates untraced and traced iterations and reports per-layer
// metrics from the traced ones, plus the tracing overhead. Run it through
// run.sh, which builds it and the daemon from the checkout:
//
//	bash perfbench/run.sh --workload spec-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// note is recorded with every result.
const note = "model unvalidated against hardware; no error figure"

// runLimit bounds a whole run, set-up included, below the 180 s a run
// may take.
const runLimit = 170 * time.Second

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports in its result line,
// for every workload; BENCHMARK.json bounds them. README.md spells out
// their meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// reportedDefs are end-to-end metrics an untraced run prints and records
// but does not put in its result line: not every workload has them, or
// their run-to-run spread on a shared host exceeds any bound the
// benchmark may set (README.md gives the measurements).
var reportedDefs = []metricDef{
	{"cell_p50_ms", "ms"},
	{"cell_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"reemit_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"sweep_tail_ms", "ms"},
	{"sim_insts_per_s", "1/s"},
	{"muontrap_slowdown_geomean", "ratio"},
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"sim.setup_ms", "ms"},
	{"sim.setup_share", "ratio"},
	{"sim.run_ms", "ms"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.host_ns_per_inst", "ns"},
	{"host.cpu_per_wall", "ratio"},
	{"sim.warmup_ms", "ms"},
	{"checkpoint.capture_ms", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"sim.restore_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"service.ckpt_taken", "count"},
	{"cpu.committed", "count"},
	{"cpu.fetched", "count"},
	{"cpu.squashed", "count"},
	{"cpu.useful_fetch_ratio", "ratio"},
	{"cpu.mispredicts", "count"},
	{"cpu.stt_stalls", "count"},
	{"cpu.safebet_stalls", "count"},
	{"core.l0d.hits", "count"},
	{"core.l0d.misses", "count"},
	{"core.l0d.evicted_uncommitted", "count"},
	{"core.l0i.misses", "count"},
	{"core.flush.domain", "count"},
	{"core.flush.misspec", "count"},
	{"core.commit.se_upgrades", "count"},
	{"memsys.l1d.misses", "count"},
	{"memsys.l2.misses", "count"},
	{"memsys.dram.accesses", "count"},
	{"memsys.ptwalks", "count"},
	{"memsys.coh.filter_broadcasts", "count"},
	{"memsys.coh.remote_downgrades", "count"},
	{"memsys.nack.retries", "count"},
	{"figures.cells", "count"},
	{"attack.trials", "count"},
	{"attack.trial_p50_ms", "ms"},
	{"attack.trial_tail_ms", "ms"},
	{"attack.leaks", "count"},
	{"attack.verdict_mismatches", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.resubmit_misses", "count"},
	{"fleet.submit_ms", "ms"},
	{"fleet.queue_ms", "ms"},
	{"fleet.run_ms", "ms"},
	{"fleet.result_ms", "ms"},
	{"fleet.dispatched", "count"},
	{"fleet.migrations", "count"},
	{"trace.overhead_s", "s"},
}

// A bench is one workload: one set of inputs the benchmark drives. Its inputs come
// from the seed alone; the amount of work per iteration is fixed.
type bench interface {
	// prepare does the set-up: everything before the first timed
	// operation.
	prepare(ctx context.Context) error
	// iterate runs the fixed unit of work once. tr is nil in untraced
	// iterations; traced iterations run the same calls and record spans.
	iterate(ctx context.Context, tr *tracer) (*iteration, error)
	// layers derives per-layer metrics from a traced iteration.
	layers(it *iteration, spans []span) map[string]float64
	// close stops everything prepare started.
	close()
}

// iteration is what one run of a workload's unit of work measured.
type iteration struct {
	wall, cpu time.Duration
	// cold are the latencies of the workload's cold cells (a cell
	// simulated, a trial, a single-cell daemon job); hits of the repeated
	// requests a cache serves; sweeps of the fleet's multi-cell sweeps;
	// reemit the time to serve every completed result again.
	cold, hits, sweeps []time.Duration
	reemit             time.Duration
	// attempted counts operations; problems names each failed one (an
	// error or a failed output check).
	attempted int
	problems  []string
	// results holds each operation's output by identity, compared across
	// iterations: repeated and traced iterations must reproduce them.
	results map[string]any
	// Simulated work of the cold operations, for the report.
	insts, cycles uint64
	slowdown      float64 // muontrap ÷ insecure cycles, geomean; 0 if none
	// measured holds per-layer values taken directly rather than from
	// spans (snapshot sizes, daemon counters).
	measured map[string]float64
	// daemonRSS is the peak resident set of the daemons so far.
	daemonRSS uint64
	// extra holds workload-specific report lines.
	extra []string
}

func (it *iteration) fail(format string, args ...any) {
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
}

// env is what every workload shares: the paths it may write under and
// the seed its inputs come from.
type env struct {
	seed   uint64
	root   string // checkout root
	work   string // this run's scratch directory
	daemon string // muontrapd binary
}

// freshDir makes a new empty directory under the run's scratch.
func (e *env) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix+"-")
}

var workloads = map[string]func(*env) bench{
	"spec-cold":      newSpecCold,
	"parsec-fullsys": newParsecFullsys,
	"security-sweep": newSecuritySweep,
	"service":        newService,
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name      = flag.String("workload", "", "workload to run: spec-cold, parsec-fullsys, security-sweep or service")
		seed      = flag.Uint64("seed", 1, "workload seed: picks the order and choice of cells and secrets")
		seconds   = flag.Int("seconds", 20, "measure whole iterations for about this many seconds (at least one)")
		trace     = flag.Int("trace", 0, "1 alternates untraced and traced iterations and reports per-layer metrics")
		root      = flag.String("root", "", "checkout root; scratch and results go under <root>/.bench_build/perfbench")
		daemon    = flag.String("daemon", "", "muontrapd binary (the service workload)")
		setupOnly = flag.Bool("setup-only", false, "do the workload's set-up, print the time it was ready, and exit")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *root == "" || *daemon == "" {
		return 2, errors.New("-root and -daemon are required (run.sh passes them)")
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(base, "out"), 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, root: *root, work: work, daemon: *daemon}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	w := mk(e)

	if *setupOnly {
		err := w.prepare(ctx)
		if err == nil {
			fmt.Printf("ready %d\n", time.Now().UnixNano())
		}
		w.close()
		if err != nil {
			return 1, err
		}
		return 0, nil
	}

	reps := 5
	if *name == "service" {
		reps = 3 // each set-up starts three daemons
	}
	setups, err := measureSetup(ctx, reps)
	if err != nil {
		return 1, fmt.Errorf("set-up: %w", err)
	}
	if err := w.prepare(ctx); err != nil {
		w.close()
		return 1, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	var plain, traced []*iteration
	var spans [][]span
	tracePath := filepath.Join(base, "out", fmt.Sprintf("%s-seed%d.trace.jsonl", *name, *seed))
	if *trace == 1 {
		if err := os.Remove(tracePath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return 1, err
		}
	}
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	for round := 1; ; round++ {
		it, err := w.iterate(ctx, nil)
		if err != nil {
			return 1, err
		}
		plain = append(plain, it)
		if *trace == 1 {
			tr := newTracer()
			it, err := w.iterate(ctx, tr)
			if err != nil {
				return 1, err
			}
			traced = append(traced, it)
			spans = append(spans, tr.snapshot())
			if err := tr.write(tracePath); err != nil {
				return 1, err
			}
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(round) > budget {
			break
		}
	}
	all := append(append([]*iteration(nil), plain...), traced...)
	attempted, problems := 0, []string(nil)
	for i, it := range all {
		attempted += it.attempted
		problems = append(problems, it.problems...)
		if i > 0 {
			problems = append(problems, compareResults(plain[0], it)...)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}

	rep := report{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Host: currentHost(), Note: note,
		Iterations: len(plain), TracedIterations: len(traced),
		SetupSamples: setups,
		Attempted:    attempted, Failed: min(len(problems), attempted),
	}
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 1 {
		metrics, defs = layerMetrics(w, plain, traced, spans), perLayer
	} else {
		metrics, defs = endToEndMetrics(plain, setups), endToEnd
	}
	rep.fill(plain)
	return 0, rep.print(base, metrics, defs)
}

// measureSetup runs the workload's set-up reps times, each in a fresh
// process of this binary, and returns the time from starting the process
// to its set-up being ready. Process start-up and package initialisation
// are part of it: they are what a user pays before the first result.
func measureSetup(ctx context.Context, reps int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-setup-only"}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "trace" && f.Name != "seconds" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	var out []float64
	for i := 0; i < reps; i++ {
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var ready int64
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "ready "); ok {
				ready, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, err
		}
		if ready == 0 {
			return nil, errors.New("set-up process reported no ready time")
		}
		out = append(out, time.Unix(0, ready).Sub(start).Seconds())
	}
	return out, nil
}

// compareResults reports every output of it that differs from the first
// iteration's.
func compareResults(first, it *iteration) []string {
	var out []string
	keys := make([]string, 0, len(first.results))
	for k := range first.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got, ok := it.results[k]; !ok || !reflect.DeepEqual(first.results[k], got) {
			out = append(out, fmt.Sprintf("%s: output differs from the first iteration's", k))
		}
	}
	return out
}

// endToEndMetrics takes the median of each metric over the iterations.
// Peak RSS is the run's: this process's plus that of the daemons the
// workload runs.
func endToEndMetrics(its []*iteration, setups []float64) map[string]float64 {
	rss := selfPeakRSS() + its[len(its)-1].daemonRSS
	return map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      perIteration(its, func(it *iteration) float64 { return it.wall.Seconds() }),
		"cpu_s":       perIteration(its, func(it *iteration) float64 { return it.cpu.Seconds() }),
		"peak_rss_mb": float64(rss) / (1 << 20),
	}
}

// reportedMetrics takes the median of each reported metric over the
// iterations, leaving out those the workload does not have.
func reportedMetrics(its []*iteration) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range []struct {
		name string
		ds   func(*iteration) []time.Duration
	}{
		{"cell", func(it *iteration) []time.Duration { return it.cold }},
		{"hit", func(it *iteration) []time.Duration { return it.hits }},
		{"sweep", func(it *iteration) []time.Duration { return it.sweeps }},
	} {
		if len(l.ds(its[0])) == 0 {
			continue
		}
		out[l.name+"_p50_ms"] = perIteration(its, func(it *iteration) float64 { return summarise(l.ds(it)).P50ms })
		if l.name != "hit" {
			out[l.name+"_tail_ms"] = perIteration(its, func(it *iteration) float64 { return summarise(l.ds(it)).Tailms })
		}
	}
	out["reemit_ms"] = perIteration(its, func(it *iteration) float64 { return ms(it.reemit) })
	if its[0].insts > 0 {
		out["sim_insts_per_s"] = perIteration(its, func(it *iteration) float64 { return float64(it.insts) / it.wall.Seconds() })
	}
	if its[0].slowdown > 0 {
		out["muontrap_slowdown_geomean"] = its[0].slowdown
	}
	return out
}

func perIteration(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

// layerMetrics takes the median of each per-layer metric over the traced
// iterations; metrics of layers the workload does not reach are 0.
func layerMetrics(w bench, plain, traced []*iteration, spans [][]span) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	per := make(map[string][]float64)
	for i, it := range traced {
		for k, v := range w.layers(it, spans[i]) {
			per[k] = append(per[k], v)
		}
	}
	for _, d := range perLayer {
		out[d.name] = 0
		if xs := per[d.name]; len(xs) > 0 {
			out[d.name] = median(xs)
		}
	}
	var pw, tw []float64
	for _, it := range plain {
		pw = append(pw, it.wall.Seconds())
	}
	for _, it := range traced {
		tw = append(tw, it.wall.Seconds())
	}
	out["trace.overhead_s"] = median(tw) - median(pw)
	return out
}

// report is the full record of a run, written next to the trace.
type report struct {
	Workload         string    `json:"workload"`
	Seed             uint64    `json:"seed"`
	Seconds          int       `json:"seconds"`
	Trace            int       `json:"trace"`
	Host             hostInfo  `json:"host"`
	Note             string    `json:"note"`
	Iterations       int       `json:"iterations"`
	TracedIterations int       `json:"traced_iterations"`
	SetupSamples     []float64 `json:"setup_samples_s"`
	Attempted        int       `json:"attempted"`
	Failed           int       `json:"failed"`
	// Per untraced iteration: latency summaries with their percentiles
	// and sample counts, and workload notes.
	Cells    []latency              `json:"cells"`
	Hits     []latency              `json:"hits,omitempty"`
	Sweeps   []latency              `json:"sweeps,omitempty"`
	Extra    []string               `json:"extra,omitempty"`
	Reported map[string]metricValue `json:"reported,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill records the details of the untraced iterations.
func (r *report) fill(its []*iteration) {
	for i, it := range its {
		r.Cells = append(r.Cells, summarise(it.cold))
		if len(it.hits) > 0 {
			r.Hits = append(r.Hits, summarise(it.hits))
		}
		if len(it.sweeps) > 0 {
			r.Sweeps = append(r.Sweeps, summarise(it.sweeps))
		}
		for _, x := range it.extra {
			r.Extra = append(r.Extra, fmt.Sprintf("iteration %d: %s", i+1, x))
		}
	}
	vals := reportedMetrics(its)
	r.Reported = make(map[string]metricValue, len(vals))
	for _, d := range reportedDefs {
		if v, ok := vals[d.name]; ok {
			r.Reported[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
}

// print writes the human-readable report, saves the full record, and
// ends standard output with the result line.
func (r *report) print(base string, metrics map[string]float64, defs []metricDef) error {
	fmt.Printf("perfbench %s seed=%d trace=%d: %d iteration(s)", r.Workload, r.Seed, r.Trace, r.Iterations)
	if r.Trace == 1 {
		fmt.Printf(" + %d traced", r.TracedIterations)
	}
	fmt.Println()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s\n", r.Host.GoVersion, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.CPUModel)
	fmt.Println("note:", r.Note)
	for i := range r.Cells {
		fmt.Printf("iteration %d: cold cells %s", i+1, r.Cells[i])
		if i < len(r.Hits) {
			fmt.Printf("; hits %s", r.Hits[i])
		}
		if i < len(r.Sweeps) {
			fmt.Printf("; fleet sweeps %s", r.Sweeps[i])
		}
		fmt.Println()
	}
	for _, x := range r.Extra {
		fmt.Println(x)
	}
	fmt.Println("reported, median over iterations:")
	for _, d := range reportedDefs {
		if v, ok := r.Reported[d.name]; ok {
			fmt.Printf("  %-28s %.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	if r.Trace == 1 {
		fmt.Println("per-layer, median over traced iterations:")
	} else {
		fmt.Println("end-to-end, median over iterations:")
	}
	for _, d := range defs {
		v := metrics[d.name]
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-28s %.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("attempted %d, failed %d\n", r.Attempted, r.Failed)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(base, "out", fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
