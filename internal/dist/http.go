package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxWireBytes bounds worker-protocol request bodies. Reports are a few KB;
// the bound only exists so a confused client cannot buffer unboundedly.
const maxWireBytes = 8 << 20

// Register mounts the coordinator's worker-facing endpoints on mux:
//
//	POST /v1/workers/register        join the cluster -> {worker_id, cadence}
//	POST /v1/workers/{id}/lease      long-poll for cells to run
//	POST /v1/workers/{id}/complete   return one cell's report (or error)
//	POST /v1/workers/{id}/heartbeat  keep leases alive, learn revocations
//	POST /v1/workers/{id}/deregister graceful goodbye: requeue everything
//
// The routes compose with the job API mux (cmd/ohmserve mounts both).
func Register(mux *http.ServeMux, d *Dispatcher) {
	mux.HandleFunc("POST /v1/workers/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeWire(w, r, &req) {
			return
		}
		writeWire(w, http.StatusOK, d.RegisterWorker(req.Name, req.Capacity))
	})
	mux.HandleFunc("POST /v1/workers/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeWire(w, r, &req) {
			return
		}
		id := r.PathValue("id")
		deadline := time.Now().Add(d.leasePoll())
		for {
			// Capture the wake channel before checking the queue: a cell
			// enqueued between an empty Lease and the select closes the
			// channel we already hold, so the submit is never missed.
			wake := d.wakeCh()
			cells, err := d.Lease(id, req.Max)
			if err != nil {
				writeWireError(w, http.StatusNotFound, err)
				return
			}
			if len(cells) > 0 || time.Now().After(deadline) {
				writeWire(w, http.StatusOK, LeaseResponse{Cells: cells})
				return
			}
			// Long poll: wait for queue growth, the poll deadline, client
			// disconnect or shutdown, then retry.
			wait := time.Until(deadline)
			timer := time.NewTimer(wait)
			select {
			case <-wake:
				timer.Stop()
			case <-timer.C:
			case <-r.Context().Done():
				timer.Stop()
				writeWire(w, http.StatusOK, LeaseResponse{})
				return
			case <-d.stopCh:
				timer.Stop()
				writeWire(w, http.StatusOK, LeaseResponse{})
				return
			}
		}
	})
	mux.HandleFunc("POST /v1/workers/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeWire(w, r, &req) {
			return
		}
		resp, err := d.Complete(r.PathValue("id"), req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrUnknownWorker) {
				code = http.StatusNotFound
			}
			writeWireError(w, code, err)
			return
		}
		writeWire(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeWire(w, r, &req) {
			return
		}
		revoked, err := d.Heartbeat(r.PathValue("id"), req.TaskIDs)
		if err != nil {
			writeWireError(w, http.StatusNotFound, err)
			return
		}
		writeWire(w, http.StatusOK, HeartbeatResponse{Revoked: revoked})
	})
	mux.HandleFunc("POST /v1/workers/{id}/deregister", func(w http.ResponseWriter, r *http.Request) {
		if err := d.Deregister(r.PathValue("id")); err != nil {
			writeWireError(w, http.StatusNotFound, err)
			return
		}
		writeWire(w, http.StatusOK, map[string]bool{"ok": true})
	})
}

func decodeWire(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBytes))
	if err := dec.Decode(v); err != nil {
		writeWireError(w, http.StatusBadRequest, fmt.Errorf("dist: bad request body: %w", err))
		return false
	}
	return true
}

func writeWire(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeWireError(w http.ResponseWriter, code int, err error) {
	writeWire(w, code, errorBody{Error: err.Error()})
}
