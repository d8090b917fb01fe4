package fleet_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/fleet"
)

// apiCall issues one raw HTTP request against the coordinator and
// decodes the JSON body (when there is one) into out.
func (f *testFleet) apiCall(method, path string, body string, out any) int {
	f.t.Helper()
	req, err := http.NewRequest(method, f.hs.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			f.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// wantAPIError asserts a request fails with the given HTTP status and
// wire error code — the same envelope the single daemon speaks, so
// client-side error mapping keeps working against a coordinator.
func (f *testFleet) wantAPIError(method, path, body string, status int, code string) {
	f.t.Helper()
	var e struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if got := f.apiCall(method, path, body, &e); got != status {
		f.t.Fatalf("%s %s: status %d, want %d", method, path, got, status)
	}
	if e.Code != code {
		f.t.Fatalf("%s %s: error code %q, want %q", method, path, e.Code, code)
	}
}

// TestCoordinatorAPISurface walks the coordinator's control plane:
// malformed registration and heartbeat bodies are 400s in the shared
// error envelope, an unknown worker's heartbeat is the 404 that tells it
// to re-register, and the worker registry reports a joined worker whose
// agent never needed to re-register. The /v1 surface it shares with the
// daemon is covered by the jobs conformance suite.
func TestCoordinatorAPISurface(t *testing.T) {
	f := newTestFleet(t, 0, fleet.Config{})

	f.wantAPIError("POST", "/fleet/v1/register", `{"name":3}`, http.StatusBadRequest, "bad_request")
	f.wantAPIError("POST", "/fleet/v1/register", `{"name":"w","base_url":"ftp://x"}`, http.StatusBadRequest, "bad_request")
	f.wantAPIError("POST", "/fleet/v1/heartbeat", `{`, http.StatusBadRequest, "bad_request")
	f.wantAPIError("POST", "/fleet/v1/heartbeat", `{"worker_id":"w-bogus"}`, http.StatusNotFound, "unknown_worker")

	f.addWorker()
	f.waitWorkers(1)
	var workers struct {
		Workers []struct {
			Alive bool `json:"alive"`
		} `json:"workers"`
	}
	if got := f.apiCall("GET", "/fleet/v1/workers", "", &workers); got != http.StatusOK {
		t.Fatalf("workers: status %d", got)
	}
	alive := 0
	for _, w := range workers.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("%d workers alive, want 1", alive)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if got := f.apiCall("GET", "/v1/healthz", "", &health); got != http.StatusOK || health.Status != "ok" || health.Workers != 1 {
		t.Fatalf("healthz: status %d, body %+v", got, health)
	}
	if n := f.workers[0].agent.Reregistrations(); n != 0 {
		t.Fatalf("healthy agent re-registered %d times", n)
	}
}
