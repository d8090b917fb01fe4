package fleet

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/checkpoint"
	"repro/internal/jobs"
)

// The coordinator's HTTP surface is the jobs front-end's /v1 surface —
// the same code a lone daemon serves, so muontrap/client drives a fleet
// and a single daemon identically — plus the /fleet/v1/* control plane:
//
//	POST   /fleet/v1/register    worker joins              → 200 {"worker_id": ...}
//	POST   /fleet/v1/heartbeat   worker liveness           → 204 | 404 (re-register)
//	GET    /fleet/v1/workers     registry snapshot         → 200 {"workers": [WorkerStatus]}
//	       /fleet/v1/store/...   shared checkpoint store   (checkpoint.StoreHandler)

// ServeHTTP makes the Coordinator mountable directly into any
// http.Server.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.mux.ServeHTTP(w, r) }

func (co *Coordinator) routes() {
	mux := http.NewServeMux()
	co.front.Routes(mux, nil)
	mux.HandleFunc("POST /fleet/v1/register", co.handleRegister)
	mux.HandleFunc("POST /fleet/v1/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("GET /fleet/v1/workers", co.handleWorkers)
	if co.store != nil {
		mux.Handle(StorePath+"/", http.StripPrefix(StorePath, checkpoint.StoreHandler(co.store)))
	}
	if co.cfg.Metrics != nil {
		mux.Handle("GET /metrics", co.cfg.Metrics)
	}
	co.mux = mux
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, jobs.MaxBodyBytes))
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	b, err := readBody(w, r)
	if err != nil {
		jobs.WriteError(w, err)
		return
	}
	req, err := DecodeRegisterRequest(b)
	if err != nil {
		jobs.WriteError(w, err)
		return
	}
	jobs.WriteJSON(w, http.StatusOK, co.register(req))
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	b, err := readBody(w, r)
	if err != nil {
		jobs.WriteError(w, err)
		return
	}
	req, err := DecodeHeartbeatRequest(b)
	if err != nil {
		jobs.WriteError(w, err)
		return
	}
	if !co.heartbeat(req) {
		jobs.WriteCode(w, http.StatusNotFound, "unknown_worker",
			fmt.Sprintf("worker %q is not registered (or was marked dead); re-register", req.WorkerID))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	jobs.WriteJSON(w, http.StatusOK, map[string][]WorkerStatus{"workers": co.Workers()})
}
