package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
)

// AgentConfig wires one worker daemon into a fleet.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:7070").
	Coordinator string
	// Name identifies this worker in listings (hostname, typically).
	Name string
	// BaseURL is the address the COORDINATOR dials this worker's /v1/jobs
	// surface at — it must be reachable from the coordinator's network
	// position, not merely from this machine (the -advertise flag).
	BaseURL string
	// Interval is the heartbeat cadence (0 = 1s). The coordinator's
	// HeartbeatTimeout should be a small multiple of it.
	Interval time.Duration
	// Client overrides the HTTP client (0-value = 10s timeout default).
	Client *http.Client
}

// Agent keeps one worker registered with a coordinator: it registers on
// start, heartbeats at the configured cadence, and re-registers whenever
// the coordinator answers 404 — the signal that the coordinator
// restarted or gave this worker up for dead while it was partitioned.
type Agent struct {
	cfg    AgentConfig
	hc     *http.Client
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	id     string
	reregs int
}

// StartAgent registers the worker and starts the heartbeat loop. The
// initial registration is synchronous so a returned Agent is already
// dispatchable; later re-registrations happen inside the loop.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	ctx, stop := context.WithCancel(context.Background())
	a := &Agent{cfg: cfg, hc: hc, ctx: ctx, stop: stop}
	if err := a.register(); err != nil {
		stop()
		return nil, err
	}
	a.wg.Add(1)
	go a.loop()
	return a, nil
}

// Close stops heartbeating. The coordinator notices via heartbeat
// timeout, exactly as it would a crash — there is deliberately no
// graceful deregister: the chaos suite depends on kill and Close being
// indistinguishable upstream.
func (a *Agent) Close() {
	a.stop()
	a.wg.Wait()
}

// WorkerID returns the coordinator-assigned identity (it changes on
// re-registration).
func (a *Agent) WorkerID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

// Reregistrations counts how many times the agent had to re-register
// after the initial one.
func (a *Agent) Reregistrations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reregs
}

func (a *Agent) loop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-t.C:
		}
		ok, err := a.heartbeat()
		if err != nil {
			continue // coordinator unreachable; keep trying
		}
		if !ok {
			if err := a.register(); err == nil {
				a.mu.Lock()
				a.reregs++
				a.mu.Unlock()
			}
		}
	}
}

func (a *Agent) post(path string, v any) (*http.Response, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(a.ctx, http.MethodPost,
		strings.TrimRight(a.cfg.Coordinator, "/")+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return a.hc.Do(req)
}

func (a *Agent) register() error {
	resp, err := a.post("/fleet/v1/register", RegisterRequest{Name: a.cfg.Name, BaseURL: a.cfg.BaseURL})
	if err != nil {
		return fmt.Errorf("fleet: registering with %s: %w", a.cfg.Coordinator, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, jobs.MaxBodyBytes))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: registering with %s: %s: %s", a.cfg.Coordinator, resp.Status, bytes.TrimSpace(body))
	}
	var rr RegisterResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.WorkerID == "" {
		return fmt.Errorf("fleet: registering with %s: malformed response", a.cfg.Coordinator)
	}
	a.mu.Lock()
	a.id = rr.WorkerID
	a.mu.Unlock()
	return nil
}

// heartbeat returns (false, nil) when the coordinator disowned this
// worker (404) and a re-registration is needed.
func (a *Agent) heartbeat() (bool, error) {
	resp, err := a.post("/fleet/v1/heartbeat", HeartbeatRequest{WorkerID: a.WorkerID()})
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, jobs.MaxBodyBytes))
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return false, nil
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return true, nil
	default:
		return false, fmt.Errorf("fleet: heartbeat: %s", resp.Status)
	}
}
