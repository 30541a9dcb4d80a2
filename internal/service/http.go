package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs             submit a JobSpec; 200 → JobStatus (413 for a
//	                         body over MaxJobSpecBytes)
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's status
//	DELETE /jobs/{id}        cancel (idempotent)
//	GET    /jobs/{id}/events Server-Sent-Events stream of round statistics
//	                         and state transitions; resume with Last-Event-ID
//	                         (or ?after=N)
//	GET    /jobs/{id}/result the finished deployment (core.Result JSON)
//	GET    /metrics          service + engine metrics registry
//	GET    /healthz          liveness
//
// Routing is done by hand (not ServeMux patterns) to stay compatible with
// the module's Go 1.21 floor.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/jobs", http.HandlerFunc(s.handleJobs))
	mux.Handle("/jobs/", http.HandlerFunc(s.handleJob))
	mux.Handle("/metrics", s.reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// writeError maps service errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrNoResult):
		status = http.StatusConflict
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		// A draining daemon is about to restart; tell well-behaved clients
		// when to come back instead of letting them hammer the socket.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// MaxJobSpecBytes caps the body of POST /jobs. A job spec names a registered
// region and placement and carries a handful of scalars, well under a
// kilobyte, so 1 MiB is generous; a larger body is refused with 413 after at
// most this many bytes are read.
const MaxJobSpecBytes = 1 << 20

// handleJobs serves the /jobs collection: submit and list.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxJobSpecBytes))
		dec.DisallowUnknownFields()
		var spec JobSpec
		if err := dec.Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
					"error": fmt.Sprintf("service: job spec exceeds the %d-byte limit", MaxJobSpecBytes),
				})
				return
			}
			writeError(w, fmt.Errorf("service: decoding job spec: %w", err))
			return
		}
		st, err := s.Submit(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
	}
}

// handleJob routes /jobs/{id}, /jobs/{id}/events and /jobs/{id}/result.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, fmt.Errorf("%w: empty id", ErrUnknownJob))
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			st, err := s.Status(id)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		case http.MethodDelete:
			st, err := s.Cancel(id)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
		}
	case "events":
		s.handleEvents(w, r, id)
	case "result":
		res, err := s.Result(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	default:
		writeError(w, fmt.Errorf("%w: %q has no %q resource", ErrUnknownJob, id, sub))
	}
}

// handleEvents streams a job's events as Server-Sent-Events. Each event is
//
//	id: <event id>
//	event: <"round" | "state">
//	data: <Event JSON>
//
// The stream replays history from the client's cursor (Last-Event-ID header
// or ?after=N), follows the live run, and closes after the terminal state
// event — so a dropped client reconnects with its last seen ID and misses
// nothing, including across a daemon restart.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, fmt.Errorf("service: bad Last-Event-ID %q", v))
			return
		}
		after = n
	} else if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, fmt.Errorf("service: bad after %q", v))
			return
		}
		after = n
	}
	// Probe the job before committing to the stream content type.
	if _, _, _, err := s.Events(id, after); err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		evs, more, terminal, err := s.Events(id, after)
		if err != nil {
			return
		}
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data); err != nil {
				return
			}
			after = e.ID
		}
		fl.Flush()
		if terminal {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}
