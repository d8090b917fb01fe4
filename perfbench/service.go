package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/defense"
	"repro/internal/workload"
	"repro/muontrap"
	"repro/muontrap/client"
)

// service drives cmd/muontrapd as three processes, one -coordinator and
// two -join workers (-workers 1 each), every one with a fresh cache
// directory and a mid-run checkpoint cadence shorter than its cells. One
// closed-loop client sends, in seed order, single-cell cold jobs to
// worker 1 and two-cell cold sweeps to the coordinator, and resubmits
// each completed job at once, with no sleep or retry. Every cold cell is
// a distinct (workload, scheme, scale): scales differ by far less than
// one loop trip, so every cell of a kernel and scheme runs the same
// program and the work per iteration is fixed.
type service struct {
	env     *env
	ops     []svcOp // in seed order
	round   int     // iterations so far, so no cell repeats across them
	daemons []*daemon
	coord   *client.Client
	worker  *client.Client
	refs    map[string]muontrap.Result // in-process results by kernel/scheme
}

const (
	svcScale   = 0.10025 // every kernel below runs 200.5–320.8 trips' worth: far from a trip boundary
	svcCadence = 10_000  // mid-run checkpoint every 10k cycles; the cells run ~15–25k
	svcCells   = 100     // single-cell jobs to worker 1 per iteration
	svcSweeps  = 40      // two-cell sweeps to the coordinator per iteration
	scaleStep  = 1e-9    // scale offset between cells: under 0.01 of a trip
	maxRounds  = 64      // iterations a run may make before offsets could reach a trip
)

// svcKernels are short SPEC kernels, so a cold cell costs tens of
// milliseconds.
var svcKernels = []string{"bzip2", "calculix", "gamess", "gobmk", "gromacs",
	"h264ref", "hmmer", "namd", "povray", "sjeng"}

var svcSchemes = []defense.Scheme{defense.Insecure(), defense.MuonTrap()}

// svcOp is one cold request: one cell on worker 1, or a two-cell sweep
// through the coordinator.
type svcOp struct {
	fleet   bool
	kernels []string
	scheme  string
}

func newService(e *env) bench {
	s := &service{env: e}
	for i := 0; i < svcCells; i++ {
		k, sch := svcKernels[i%len(svcKernels)], svcSchemes[i/len(svcKernels)%2]
		s.ops = append(s.ops, svcOp{kernels: []string{k}, scheme: sch.Name})
	}
	for i := 0; i < svcSweeps; i++ {
		p := i % (len(svcKernels) / 2)
		sch := svcSchemes[i/(len(svcKernels)/2)%2]
		s.ops = append(s.ops, svcOp{fleet: true, scheme: sch.Name,
			kernels: []string{svcKernels[2*p], svcKernels[2*p+1]}})
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	rng.Shuffle(len(s.ops), func(i, j int) { s.ops[i], s.ops[j] = s.ops[j], s.ops[i] })
	return s
}

// scale returns op i's scale in this iteration, distinct from every
// other cell's in the run.
func (s *service) scale(i int) float64 {
	return svcScale + scaleStep*float64(s.round*len(s.ops)+i+1)
}

func (op svcOp) sweep(scale float64) muontrap.Sweep {
	sw := muontrap.Sweep{Schemes: []muontrap.Scheme{muontrap.Scheme(op.scheme)}, Scales: []float64{scale}}
	for _, k := range op.kernels {
		sw.Workloads = append(sw.Workloads, muontrap.Workload(k))
	}
	return sw
}

// prepare starts the coordinator, waits until it serves, starts both
// workers, and waits until both have joined.
func (s *service) prepare(ctx context.Context) error {
	if err := s.checkScales(); err != nil {
		return err
	}
	flags := []string{"-checkpoint-every", strconv.Itoa(svcCadence)}
	port, err := freePort()
	if err != nil {
		return err
	}
	co, err := s.start(ctx, port, "coordinator", append(flags, "-coordinator"))
	if err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		self := fmt.Sprintf("http://127.0.0.1:%d", port)
		if _, err := s.start(ctx, port, fmt.Sprintf("worker%d", i), append(flags,
			"-workers", "1", "-join", co.url, "-advertise", self)); err != nil {
			return err
		}
	}
	for {
		var h struct {
			Workers int `json:"workers"`
		}
		if err := getJSON(ctx, co.url+"/v1/healthz", &h); err != nil {
			return err
		}
		if h.Workers == 2 {
			break
		}
		if err := sleep(ctx, 2*time.Millisecond); err != nil {
			return fmt.Errorf("workers did not join: %w", err)
		}
	}
	s.coord = client.New(co.url)
	s.worker = client.New(s.daemons[1].url)
	return nil
}

// checkScales verifies that every scale offset of a run leaves each
// kernel's trip count unchanged, so the work per cell is fixed.
func (s *service) checkScales() error {
	hi := svcScale + scaleStep*float64(maxRounds*len(s.ops))
	for _, k := range svcKernels {
		sp, ok := workload.ByName(k)
		if !ok {
			return fmt.Errorf("unknown kernel %s", k)
		}
		if int64(float64(sp.Iterations)*svcScale) != int64(float64(sp.Iterations)*hi) {
			return fmt.Errorf("%s: scale offsets change the trip count", k)
		}
	}
	return nil
}

// start starts one daemon on port with a fresh cache directory and waits
// until it answers its health check.
func (s *service) start(ctx context.Context, port int, name string, args []string) (*daemon, error) {
	dir, err := s.env.freshDir(name)
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-cache", filepath.Join(dir, "cache")}, args...)
	cmd := exec.Command(s.env.daemon, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &daemon{name: name, url: url, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	s.daemons = append(s.daemons, d)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
		if err != nil {
			return nil, err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited during start-up: %v (log %s)", name, d.err, log.Name())
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// daemon is one muontrapd process.
type daemon struct {
	name, url string
	cmd       *exec.Cmd
	log       *os.File
	done      chan struct{} // closed once the process has exited
	err       error
}

// stop asks the daemon to drain and exit, kills it if it does not within
// ten seconds, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

func (s *service) close() {
	// Workers first, so none outlives the coordinator it reports to.
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].stop()
	}
	s.daemons = nil
}

// daemonPeakRSS sums the daemons' peak resident sets.
func (s *service) daemonPeakRSS() uint64 {
	var n uint64
	for _, d := range s.daemons {
		if v, err := procPeakRSS(d.cmd.Process.Pid); err == nil {
			n += v
		}
	}
	return n
}

func (s *service) daemonCPU() time.Duration {
	var n time.Duration
	for _, d := range s.daemons {
		if v, err := procCPU(d.cmd.Process.Pid); err == nil {
			n += v
		}
	}
	return n
}

func refKey(kernel, scheme string) string { return kernel + "/" + scheme }

// reference computes, in process and before the first timed iteration,
// the result every cell must reproduce: Runner.Run of the same kernel and
// scheme at the same checkpoint cadence.
func (s *service) reference(ctx context.Context) error {
	r := muontrap.NewRunner(muontrap.WithScale(svcScale), muontrap.WithCheckpointEvery(svcCadence))
	type job struct{ k, sch string }
	var jobs []job
	for _, k := range svcKernels {
		for _, sch := range svcSchemes {
			jobs = append(jobs, job{k, sch.Name})
		}
	}
	res := make([]muontrap.RunResult, len(jobs))
	errs := make([]error, len(jobs))
	pool(2, len(jobs), func(i int) {
		res[i], errs[i] = r.Run(ctx, muontrap.RunSpec{Workload: muontrap.Workload(jobs[i].k), Scheme: muontrap.Scheme(jobs[i].sch)})
	})
	s.refs = make(map[string]muontrap.Result, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			return fmt.Errorf("%s/%s: %w", j.k, j.sch, errs[i])
		}
		s.refs[refKey(j.k, j.sch)] = res[i].Result
	}
	return nil
}

// completed is one finished cold job, kept for the re-emit pass.
type completed struct {
	c   *client.Client
	key string
	op  string
	res *muontrap.SweepResult
}

func (s *service) iterate(ctx context.Context, tr *tracer) (*iteration, error) {
	if s.round == maxRounds {
		return nil, fmt.Errorf("more than %d iterations in one run", maxRounds)
	}
	if s.refs == nil {
		if err := s.reference(ctx); err != nil {
			return nil, fmt.Errorf("reference results: %w", err)
		}
	}
	it := &iteration{results: make(map[string]any), measured: make(map[string]float64)}
	before, err := s.fleetStats(ctx)
	if err != nil {
		return nil, err
	}
	var done []completed
	var slowdown []float64
	dcpu0, cpu0, t0 := s.daemonCPU(), selfCPU(), time.Now()
	for i, op := range s.ops {
		c, front, kind := s.worker, "service", "cell"
		if op.fleet {
			c, front, kind = s.coord, "fleet", "sweep"
		}
		sw := op.sweep(s.scale(i))
		name := fmt.Sprintf("op%03d:%s/%v/%s", i, front, op.kernels, op.scheme)

		it.attempted++
		start := time.Now()
		res, _, err := s.request(ctx, c, sw, tr, name, front, kind)
		lat := time.Since(start)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			it.fail("%s: %v", name, err)
			continue
		}
		if op.fleet {
			it.sweeps = append(it.sweeps, lat)
		} else {
			it.cold = append(it.cold, lat)
		}
		s.checkResult(it, name, op, res)

		// Resubmit at once: a stored result makes the job born done.
		it.attempted++
		start = time.Now()
		again, rejob, err := s.request(ctx, c, sw, tr, name, front, "hit")
		it.hits = append(it.hits, time.Since(start))
		switch {
		case err != nil:
			it.fail("%s resubmission: %v", name, err)
		case !sameSweep(res, again):
			it.fail("%s: resubmission returned a different result", name)
		}
		if err != nil {
			continue
		}
		if !rejob.bornDone {
			it.measured[front+".resubmit_misses"]++
		}
		done = append(done, completed{c: c, key: rejob.CacheKey, op: name, res: res})
	}
	// Re-emit every completed job's result by its content key, several
	// times over, so one pause cannot set the figure.
	it.reemit = timePasses(func(int) {
		for _, d := range done {
			id := tr.id()
			start := time.Now()
			res, err := d.c.ResultByKey(ctx, d.key)
			tr.add(id, 0, d.op, "reemit", false, start, time.Now())
			switch {
			case err != nil:
				it.fail("%s re-emit: %v", d.op, err)
			case !sameSweep(d.res, res):
				it.fail("%s: re-emitted result differs", d.op)
			}
		}
	})
	it.attempted += reemitPasses * len(done)
	it.wall = time.Since(t0)
	it.cpu = selfCPU() - cpu0 + s.daemonCPU() - dcpu0
	after, err := s.fleetStats(ctx)
	if err != nil {
		return nil, err
	}
	s.round++
	it.daemonRSS = s.daemonPeakRSS()

	it.measured["fleet.dispatched"] = float64(after.Dispatched - before.Dispatched)
	it.measured["fleet.migrations"] = float64(after.Migrations - before.Migrations)
	for _, k := range svcKernels {
		b, okB := it.results[refKey(k, "insecure")].(muontrap.Result)
		m, okM := it.results[refKey(k, "muontrap")].(muontrap.Result)
		if okB && okM && b.Cycles > 0 {
			slowdown = append(slowdown, float64(m.Cycles)/float64(b.Cycles))
		}
	}
	if len(slowdown) > 0 {
		it.slowdown = geomean(slowdown)
	}
	it.extra = append(it.extra,
		fmt.Sprintf("resubmissions not born done: %d of %d on worker 1, %d of %d on the coordinator",
			int(it.measured["service.resubmit_misses"]), len(it.cold), int(it.measured["fleet.resubmit_misses"]), len(it.sweeps)))
	return it, nil
}

// checkResult compares every cell of a cold result with the in-process
// reference and records it for the cross-iteration comparison.
func (s *service) checkResult(it *iteration, name string, op svcOp, res *muontrap.SweepResult) {
	if len(res.Runs) != len(op.kernels) {
		it.fail("%s: %d runs, want %d", name, len(res.Runs), len(op.kernels))
		return
	}
	for _, run := range res.Runs {
		key := refKey(string(run.Workload), string(run.Scheme))
		if !sameResult(run.Result, s.refs[key]) {
			it.fail("%s: %s differs from the in-process Runner.Run result", name, key)
			return
		}
		it.results[key] = run.Result
		addCounters(it.measured, run.Result)
		it.measured["service.ckpt_taken"] += float64(run.Counters["ckpt.taken"])
	}
}

// requested is what the client saw of a job.
type requested struct {
	CacheKey string
	bornDone bool
}

// request runs one job to its result. Untraced, it is client.Sweep (a
// resubmission splits it into its Submit, Stream and Result calls, to
// see whether the job was born done). Traced, the client polls the job
// each millisecond instead of streaming, so the span tree separates
// submit, queue, run and result.
func (s *service) request(ctx context.Context, c *client.Client, sw muontrap.Sweep, tr *tracer, group, front, kind string) (*muontrap.SweepResult, requested, error) {
	if tr == nil && kind != "hit" {
		res, err := c.Sweep(ctx, sw)
		return res, requested{}, err
	}
	id := tr.id()
	start := time.Now()
	var job muontrap.Job
	var err error
	tr.time(id, group, front+".submit", false, func() { job, err = c.Submit(ctx, sw) })
	if err != nil {
		return nil, requested{}, err
	}
	rq := requested{CacheKey: job.CacheKey, bornDone: job.State == muontrap.JobDone}
	if tr == nil {
		if job, err = c.Stream(ctx, job.ID, nil); err != nil {
			return nil, rq, err
		}
	} else {
		job, err = s.poll(ctx, c, job, tr, id, group, front)
		if err != nil {
			return nil, rq, err
		}
	}
	if job.State != muontrap.JobDone {
		return nil, rq, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	var res *muontrap.SweepResult
	tr.time(id, group, front+".result", false, func() { res, err = c.Result(ctx, job.ID) })
	tr.add(id, 0, group, front+"."+kind, false, start, time.Now())
	return res, rq, err
}

// poll follows a job to a terminal state, recording the time it spent
// queued and then running.
func (s *service) poll(ctx context.Context, c *client.Client, job muontrap.Job, tr *tracer, parent int64, group, front string) (muontrap.Job, error) {
	var err error
	phase := func(name string, until func(muontrap.JobState) bool) {
		id := tr.id()
		start := time.Now()
		for err == nil && !until(job.State) {
			if err = sleep(ctx, time.Millisecond); err == nil {
				job, err = c.Job(ctx, job.ID)
			}
		}
		tr.add(id, parent, group, name, false, start, time.Now())
	}
	phase(front+".queue", func(st muontrap.JobState) bool { return st != muontrap.JobQueued })
	phase(front+".run", muontrap.JobState.Terminal)
	return job, err
}

// fleetStats reads the coordinator's dispatch counters from its health
// check.
type fleetStats struct {
	Dispatched uint64 `json:"dispatched"`
	Migrations uint64 `json:"migrations"`
}

func (s *service) fleetStats(ctx context.Context) (fleetStats, error) {
	var st fleetStats
	err := getJSON(ctx, s.daemons[0].url+"/v1/healthz", &st)
	return st, err
}

func (s *service) layers(it *iteration, spans []span) map[string]float64 {
	out := counterLayers(it)
	byID := make(map[int64]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	// Phases of cold requests only; resubmissions have their own roots.
	phases := make(map[string][]time.Duration)
	for _, sp := range spans {
		p, ok := byID[sp.Parent]
		if ok && (p.Name == "service.cell" || p.Name == "fleet.sweep") {
			phases[sp.Name] = append(phases[sp.Name], sp.dur())
		}
	}
	for _, front := range []string{"service", "fleet"} {
		for _, ph := range []string{"submit", "queue", "run", "result"} {
			out[front+"."+ph+"_ms"] = summarise(phases[front+"."+ph]).P50ms
		}
	}
	for _, k := range []string{"service.ckpt_taken", "service.resubmit_misses", "fleet.dispatched", "fleet.migrations"} {
		out[k] = it.measured[k]
	}
	out["host.cpu_per_wall"] = float64(it.cpu) / float64(it.wall)
	return out
}

// sameSweep reports whether two sweep results carry identical runs.
func sameSweep(a, b *muontrap.SweepResult) bool {
	if a == nil || b == nil || len(a.Runs) != len(b.Runs) {
		return false
	}
	for i := range a.Runs {
		x, y := a.Runs[i], b.Runs[i]
		if x.Workload != y.Workload || x.Scheme != y.Scheme || x.Scale != y.Scale || !sameResult(x.Result, y.Result) {
			return false
		}
	}
	return true
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
