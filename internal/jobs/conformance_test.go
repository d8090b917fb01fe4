package jobs_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/muontrap"
	"repro/muontrap/client"
)

// The API conformance suite: one table of wire cases and one
// stream/resume walk, run against both backends of the jobs front-end —
// a lone service.Server and a fleet.Coordinator sharding onto in-process
// worker daemons. Whatever a client can observe must be the same on
// both.

const cadence = 2000

// daemon is one backend under test, served over httptest.
type daemon struct {
	url string
	c   *client.Client
	// release lets jobs held at start run: the daemon cancels the job
	// holding its only runner slot; the fleet joins its first worker.
	release func()
	// close stops the backend like a kill: nothing terminal is journaled.
	close func()
}

// backend boots a daemon over dir. held keeps submitted jobs queued
// until release; store, when non-nil, is the snapshot store the runs
// checkpoint into.
type backend struct {
	name  string
	start func(t *testing.T, dir string, held bool, store checkpoint.ContentStore) *daemon
}

var backends = []backend{
	{"service", startService},
	{"fleet", startFleet},
}

// blockerScale keeps every blocker on its own cache key.
var blockerScale atomic.Int64

// longSweep is a job that runs far longer than any test waits.
func longSweep() muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"mcf"},
		Schemes:   []muontrap.Scheme{"insecure"},
		Scales:    []float64{40 + float64(blockerScale.Add(1))},
	}
}

func startService(t *testing.T, dir string, held bool, store checkpoint.ContentStore) *daemon {
	t.Helper()
	srv, err := service.New(service.Config{Dir: dir, CheckpointEvery: cadence, SnapStore: store})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	d := &daemon{url: hs.URL, c: client.New(hs.URL), release: func() {}}
	var once sync.Once
	d.close = func() {
		once.Do(func() {
			hs.Close()
			srv.Close()
		})
	}
	t.Cleanup(d.close)
	if held {
		blocker, err := d.c.Submit(context.Background(), longSweep())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, d.c, blocker.ID, muontrap.JobRunning)
		d.release = func() {
			if _, err := d.c.Cancel(context.Background(), blocker.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func startFleet(t *testing.T, dir string, held bool, store checkpoint.ContentStore) *daemon {
	t.Helper()
	co, err := fleet.New(fleet.Config{Dir: dir, CheckpointEvery: cadence, HeartbeatTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(co)
	var once sync.Once
	d := &daemon{url: hs.URL, c: client.New(hs.URL)}
	d.close = func() {
		once.Do(func() {
			hs.Close()
			co.Close()
		})
	}
	t.Cleanup(d.close)
	d.release = func() {
		srv, err := service.New(service.Config{Dir: t.TempDir(), CheckpointEvery: cadence, SnapStore: store})
		if err != nil {
			t.Fatal(err)
		}
		whs := httptest.NewServer(srv)
		agent, err := fleet.StartAgent(fleet.AgentConfig{
			Coordinator: hs.URL, Name: "w0", BaseURL: whs.URL, Interval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			agent.Close()
			whs.Close()
			srv.Close()
		})
		for deadline := time.Now().Add(10 * time.Second); len(co.Workers()) == 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("worker never registered")
			}
		}
	}
	if !held {
		d.release()
	}
	return d
}

// waitState polls a job until it reaches want.
func waitState(t *testing.T, c *client.Client, id string, want muontrap.JobState) muontrap.Job {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		job, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State == want {
			return job
		}
		if job.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s) waiting for %s", id, job.State, job.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// call issues one raw request and returns the status and body.
func (d *daemon) call(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return resp.StatusCode, b.String()
}

// TestConformance runs the wire-case table and the stream/resume walk
// against both backends.
func TestConformance(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			// Out-of-store targets an escaped result key could reach.
			for _, name := range []string{"service", "fleet"} {
				if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name, "secret.json"), []byte(`{"runs":[]}`), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			d := b.start(t, dir, true, nil)
			t.Run("wire", func(t *testing.T) { wireCases(t, d) })
			t.Run("walk", func(t *testing.T) { walk(t, d) })
		})
	}
}

// wireCases pins status codes and error codes: validation maps onto the
// muontrap sentinels' wire codes, unknown resources are 404s (a result
// key that is not 64 lowercase hex digits never reaches the
// filesystem), and the discovery endpoints answer.
func wireCases(t *testing.T, d *daemon) {
	huge := `{"sweep":{"workloads":["` + strings.Repeat("x", jobs.MaxBodyBytes) + `"],"schemes":["insecure"]}}`
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/jobs", `{not json`, 400, "bad_request"},
		{"POST", "/v1/jobs", `{"sweep":{"workloads":["hmmer"],"schemes":["insecure"]},"bogus":1}`, 400, "bad_request"},
		{"POST", "/v1/jobs", huge, 400, "bad_request"},
		{"POST", "/v1/jobs", `{"sweep":{"workloads":["nope"],"schemes":["muontrap"]}}`, 400, "unknown_workload"},
		{"POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"],"schemes":["nope"]}}`, 400, "unknown_scheme"},
		{"POST", "/v1/jobs", `{"sweep":{"attacks":["nope"],"schemes":["muontrap"]}}`, 400, "unknown_attack"},
		{"POST", "/v1/jobs", `{"sweep":{"workloads":[],"schemes":["muontrap"]}}`, 400, "bad_request"},
		{"POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"]}}`, 400, "bad_request"},
		{"POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"],"schemes":["muontrap"]},"priority":"urgent"}`, 400, "bad_request"},
		{"GET", "/v1/jobs/job-bogus", "", 404, "unknown_job"},
		{"GET", "/v1/jobs/job-bogus/result", "", 404, "unknown_job"},
		{"GET", "/v1/jobs/job-bogus/stream", "", 404, "unknown_job"},
		{"DELETE", "/v1/jobs/job-bogus", "", 404, "unknown_job"},
		{"POST", "/v1/jobs/job-bogus/resume", "", 404, "unknown_job"},
		{"GET", "/v1/results/" + strings.Repeat("0", 64), "", 404, "unknown_result"},
		{"GET", "/v1/results/..%2Fjobs%2Fx", "", 404, "unknown_result"},
		{"GET", "/v1/results/..%2Fsecret", "", 404, "unknown_result"},
		{"GET", "/v1/results/..%2F..%2Fservice%2Fsecret", "", 404, "unknown_result"},
		{"GET", "/v1/results/%2e%2e%2f%2e%2e%2fservice%2fsecret", "", 404, "unknown_result"},
		{"GET", "/v1/results/" + strings.Repeat("0", 63), "", 404, "unknown_result"},
		{"GET", "/v1/results/" + strings.Repeat("Z", 64), "", 404, "unknown_result"},
	} {
		status, body := d.call(t, tc.method, tc.path, tc.body)
		if status != tc.status || !strings.Contains(body, `"code": "`+tc.code+`"`) {
			name := tc.body
			if len(name) > 80 {
				name = name[:80] + "…"
			}
			t.Errorf("%s %s %s: HTTP %d %s, want %d %s", tc.method, tc.path, name, status, strings.TrimSpace(body), tc.status, tc.code)
		}
	}
	cat, err := d.c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Workloads) != 33 || len(cat.Workloads) != len(muontrap.Workloads()) ||
		len(cat.Schemes) == 0 || len(cat.Schemes) != len(muontrap.Schemes()) ||
		len(cat.Figures) != 7 || len(cat.Figures) != len(muontrap.FigureIDs()) ||
		len(cat.Attacks) < 12 || len(cat.Attacks) != len(muontrap.AttackNames()) || cat.SchemeDoc["muontrap"] == "" {
		t.Errorf("catalog incomplete: %d workloads, %d schemes, %d figures, %d attacks",
			len(cat.Workloads), len(cat.Schemes), len(cat.Figures), len(cat.Attacks))
	}
	if status, body := d.call(t, "GET", "/v1/healthz", ""); status != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthz: HTTP %d %s", status, body)
	}
	if _, err := d.c.Submit(context.Background(), muontrap.Sweep{
		Attacks: []muontrap.AttackName{"nope"}, Schemes: []muontrap.Scheme{"insecure"},
	}); !errors.Is(err, muontrap.ErrUnknownAttack) {
		t.Errorf("unknown attack: err = %v, want ErrUnknownAttack across the wire", err)
	}
}

// walk drives the job state machine and the SSE protocol: a held job is
// cancelled, resumed and cancelled again; a real two-cell job completes,
// streams, resumes by Last-Event-ID, and is served by key and by
// born-done resubmission.
func walk(t *testing.T, d *daemon) {
	ctx := context.Background()
	c := d.c
	conflict := func(err error) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != "conflict" {
			t.Fatalf("err = %v, want 409 conflict", err)
		}
	}

	// A scale-less sweep is keyed at the default scale and stays queued.
	job1, err := c.Submit(ctx, muontrap.Sweep{Workloads: []muontrap.Workload{"swaptions"}, Schemes: []muontrap.Scheme{"muontrap"}})
	if err != nil {
		t.Fatal(err)
	}
	if job1.State != muontrap.JobQueued || job1.Total != 1 || !jobs.ValidKey(job1.CacheKey) {
		t.Fatalf("held job: %+v", job1)
	}
	_, err = c.Result(ctx, job1.ID) // the job exists: 409, not 404
	conflict(err)
	for i, want := range []muontrap.JobState{muontrap.JobCancelled, muontrap.JobCancelled} {
		if got, err := c.Cancel(ctx, job1.ID); err != nil || got.State != want {
			t.Fatalf("cancel %d: %s, %v", i, got.State, err)
		}
	}
	if got, err := c.Resume(ctx, job1.ID); err != nil || got.State != muontrap.JobQueued {
		t.Fatalf("resume: %s, %v", got.State, err)
	}
	if got, err := c.Cancel(ctx, job1.ID); err != nil || got.State != muontrap.JobCancelled {
		t.Fatalf("cancel after resume: %s, %v", got.State, err)
	}

	// Two cells → progress frame ids 1 and 2.
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"", "muontrap"},
		Scales:    []float64{0.05},
	}
	job2, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	d.release()
	var progress []muontrap.Progress
	final, err := c.Stream(ctx, job2.ID, func(p muontrap.Progress) { progress = append(progress, p) })
	if err != nil || final.State != muontrap.JobDone || final.Done != 2 {
		t.Fatalf("stream: %+v, %v", final, err)
	}
	if len(progress) != 2 || progress[1].Done != 2 || progress[1].Total != 2 {
		t.Fatalf("progress frames: %+v", progress)
	}
	first, err := c.Result(ctx, job2.ID)
	if err != nil || len(first.Runs) != 2 || first.Runs[0].Scheme != "insecure" || first.Runs[1].Scheme != "muontrap" {
		t.Fatalf("result: %+v, %v", first, err)
	}
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(list); n < 2 || list[n-2].ID != job1.ID || list[n-1].ID != job2.ID {
		t.Fatalf("job list not in submission order: %+v", list)
	}
	if byKey, err := c.ResultByKey(ctx, final.CacheKey); err != nil || string(marshal(t, byKey)) != string(marshal(t, first)) {
		t.Fatalf("result by key: %v", err)
	}
	_, err = c.Cancel(ctx, job2.ID)
	conflict(err)
	_, err = c.Resume(ctx, job2.ID)
	conflict(err)

	// The raw wire: job snapshot, id'd progress frames, terminal event;
	// Last-Event-ID resumes after the cursor.
	if ids, terminal := readStream(t, d.url, job2.ID, ""); len(ids) != 2 || ids[0] != "1" || ids[1] != "2" || terminal != "done" {
		t.Fatalf("fresh stream: progress ids %v, terminal %q; want [1 2] done", ids, terminal)
	}
	if ids, terminal := readStream(t, d.url, job2.ID, "1"); len(ids) != 1 || ids[0] != "2" || terminal != "done" {
		t.Fatalf("resumed stream: progress ids %v, terminal %q; want [2] done", ids, terminal)
	}

	// A resubmission is born done from the result store; its frames are
	// synthesized from the result and honor the same cursor.
	born, err := c.Submit(ctx, sw)
	if err != nil || born.State != muontrap.JobDone || born.ID == job2.ID || born.CacheKey != job2.CacheKey {
		t.Fatalf("resubmission: %+v, %v", born, err)
	}
	if ids, terminal := readStream(t, d.url, born.ID, "1"); len(ids) != 1 || ids[0] != "2" || terminal != "done" {
		t.Fatalf("synthesized stream: progress ids %v, terminal %q; want [2] done", ids, terminal)
	}
	if again, err := c.Result(ctx, born.ID); err != nil || string(marshal(t, again)) != string(marshal(t, first)) {
		t.Fatalf("born-done result differs: %v", err)
	}
}

func marshal(t *testing.T, res *muontrap.SweepResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readStream reads one SSE connection to its terminal event, returning
// the progress frame ids and the terminal event name. The stream must
// carry exactly the job snapshot, the progress frames and the terminal
// event, in that order.
func readStream(t *testing.T, base, id, lastEventID string) (ids []string, terminal string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var events []string
	var frameID, event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			frameID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case line == "":
			events = append(events, event)
			if event == "progress" {
				ids = append(ids, frameID)
			} else if muontrap.JobState(event).Terminal() {
				if events[0] != "job" || len(events) != len(ids)+2 {
					t.Fatalf("stream events %v, want the job snapshot, progress frames, terminal event", events)
				}
				return ids, event
			}
			frameID, event = "", ""
		}
	}
	t.Fatal("stream ended without a terminal event")
	return nil, ""
}

// failingStore claims a mid-run checkpoint for every run and serves an
// empty snapshot, so any run started with resume fails to restore.
type failingStore struct{}

func (failingStore) Put(*checkpoint.Snapshot) (string, error)  { return strings.Repeat("0", 64), nil }
func (failingStore) Load(string) (*checkpoint.Snapshot, error) { return checkpoint.New(), nil }
func (failingStore) Remove(string)                             {}
func (failingStore) Link(string, string) error                 { return nil }
func (failingStore) Unlink(string)                             {}
func (failingStore) Resolve(string) (string, bool)             { return strings.Repeat("0", 64), true }

// TestDoneIsPublishedOnlyWhenDurable holds each terminal transition's
// durable writes open through the front-end's seam and checks that no
// reader observes the terminal state meanwhile, on both backends and for
// done, failed and cancelled. Once a reader does, the daemon restarted
// over the same directory lists the job in that state, and a done
// job's resubmission is served from the result store.
func TestDoneIsPublishedOnlyWhenDurable(t *testing.T) {
	quick := func(scale float64) muontrap.Sweep {
		return muontrap.Sweep{
			Workloads: []muontrap.Workload{"hmmer"},
			Schemes:   []muontrap.Scheme{"insecure"},
			Scales:    []float64{scale},
		}
	}
	for bi, b := range backends {
		for _, tc := range []struct {
			state muontrap.JobState
			held  bool
			store checkpoint.ContentStore
			sweep muontrap.Sweep
			opts  []client.SubmitOption
		}{
			{muontrap.JobDone, true, nil, quick(0.05 + float64(bi)/1000), nil},
			{muontrap.JobFailed, true, failingStore{}, quick(0.06 + float64(bi)/1000), []client.SubmitOption{client.WithResume()}},
			{muontrap.JobCancelled, false, nil, longSweep(), nil},
		} {
			t.Run(b.name+"/"+string(tc.state), func(t *testing.T) {
				ctx := context.Background()
				dir := t.TempDir()
				d := b.start(t, dir, tc.held, tc.store)
				job, err := d.c.Submit(ctx, tc.sweep, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				entered := make(chan struct{})
				release := make(chan struct{})
				var releaseOnce sync.Once
				defer releaseOnce.Do(func() { close(release) }) // never strand the job on failure
				jobs.SetBeforeDurable(func(id string) {
					if id == job.ID {
						close(entered)
						<-release
					}
				})
				defer jobs.SetBeforeDurable(nil)

				acted := make(chan error, 1)
				if tc.state == muontrap.JobCancelled {
					waitState(t, d.c, job.ID, muontrap.JobRunning)
					go func() {
						_, err := d.c.Cancel(ctx, job.ID)
						acted <- err
					}()
				} else {
					d.release()
					acted <- nil
				}
				select {
				case <-entered:
				case <-time.After(time.Minute):
					t.Fatal("job never reached its durable writes")
				}
				got, err := d.c.Job(ctx, job.ID)
				if err != nil {
					t.Fatal(err)
				}
				list, err := d.c.Jobs(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range append(list, got) {
					if j.ID == job.ID && j.State.Terminal() {
						t.Fatalf("job observable as %s before its writes", j.State)
					}
				}
				releaseOnce.Do(func() { close(release) })
				if err := <-acted; err != nil {
					t.Fatal(err)
				}
				if got, err = d.c.Stream(ctx, job.ID, nil); err != nil || got.State != tc.state {
					t.Fatalf("job ended %s (%v), want %s", got.State, err, tc.state)
				}

				d.close()
				d2 := b.start(t, dir, false, nil)
				if got, err := d2.c.Job(ctx, job.ID); err != nil || got.State != tc.state {
					t.Fatalf("restarted daemon lists the job %s (%v), want %s", got.State, err, tc.state)
				}
				if tc.state == muontrap.JobDone {
					if again, err := d2.c.Submit(ctx, tc.sweep); err != nil || again.State != muontrap.JobDone {
						t.Fatalf("resubmission: %s (%v), want born done", again.State, err)
					}
				}
			})
		}
	}
}
