package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/muontrap"
)

// TestAttemptFollowsWorkerStream pins the shape of one fleet attempt:
// submit, follow the worker's stream to its terminal event, fetch the
// result — exactly one request each, and no status polling. The fake
// worker finishes every submission at once and counts the requests it
// serves by route.
func TestAttemptFollowsWorkerStream(t *testing.T) {
	run := muontrap.RunResult{
		Workload: "swaptions", Scheme: "muontrap", Scale: 0.02,
		Result: muontrap.Result{Cycles: 1234, Instructions: 5678, Counters: map[string]uint64{}},
	}
	job := func(state muontrap.JobState) muontrap.Job {
		return muontrap.Job{ID: "job-fake", State: state, Total: 1}
	}
	reply := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusAccepted, job(muontrap.JobQueued))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, job(muontrap.JobDone))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		p, _ := json.Marshal(muontrap.Progress{Done: 1, Total: 1, Run: run})
		fmt.Fprintf(w, "event: job\ndata: %s\n\n", mustJSON(t, job(muontrap.JobRunning)))
		fmt.Fprintf(w, "id: 1\nevent: progress\ndata: %s\n\n", p)
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", mustJSON(t, job(muontrap.JobDone)))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, muontrap.SweepResult{Runs: []muontrap.RunResult{run}})
	})
	var mu sync.Mutex
	counts := make(map[string]int)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		mu.Lock()
		counts[route]++
		mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)

	f := newTestFleet(t, 0, fleet.Config{})
	agent, err := fleet.StartAgent(fleet.AgentConfig{
		Coordinator: f.hs.URL, Name: "counting", BaseURL: worker.URL, Interval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	f.waitWorkers(1)

	res, err := f.client.Sweep(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 || res.Runs[0].Cycles != run.Cycles {
		t.Fatalf("fleet result %+v, want the worker's run", res.Runs)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"POST /v1/jobs": 1, "GET /v1/jobs/{id}/stream": 1, "GET /v1/jobs/{id}/result": 1}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("worker served %v, want exactly %v", counts, want)
	}
}
