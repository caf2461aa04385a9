package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"

	"gsdram/internal/spec"
)

// maxSubmitBytes bounds a POST /api/v1/sweeps body. A point's spec is a
// few hundred bytes of JSON, so this admits sweeps of tens of thousands
// of points while keeping one request from holding unbounded memory.
const maxSubmitBytes = 8 << 20

// SubmitRequest is the POST /api/v1/sweeps body: one spec per point.
type SubmitRequest struct {
	Points []spec.Spec `json:"points"`
}

// SubmitPoint echoes one accepted point's content address.
type SubmitPoint struct {
	Index int    `json:"index"`
	Hash  string `json:"hash"`
}

// SubmitResponse acknowledges an accepted sweep.
type SubmitResponse struct {
	ID     string        `json:"id"`
	Total  int           `json:"total"`
	Points []SubmitPoint `json:"points"`
}

// JobStatus is the GET /api/v1/sweeps/{id} body.
type JobStatus struct {
	ID       string  `json:"id"`
	Complete bool    `json:"complete"`
	Totals   Totals  `json:"totals"`
	Points   []Point `json:"points"`
}

// Health is the GET /healthz body.
type Health struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	UptimeNS int64  `json:"uptime_ns"`
}

// Server exposes an Engine over HTTP/JSON:
//
//	POST /api/v1/sweeps               submit a sweep (503 while draining)
//	GET  /api/v1/sweeps/{id}          job status snapshot
//	GET  /api/v1/sweeps/{id}/events   NDJSON progress stream until done
//	                                  (?from=N resumes at sequence N)
//	GET  /api/v1/jobs                 every job's summary
//	GET  /api/v1/results/{hash}       stored run document (404 on miss)
//	GET  /api/v1/stats                engine + cache counters
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     liveness + drain state + uptime
//	GET  /debug/pprof/...             profiling, if EnablePprof was called
type Server struct {
	engine *Engine
	logger *slog.Logger
	mux    *http.ServeMux
}

// NewServer wraps an engine; logger may be nil for a silent server.
func NewServer(e *Engine, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{engine: e, logger: logger, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleJob)
	s.mux.HandleFunc("GET /api/v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /api/v1/results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default
// because the profile endpoints expose process internals; `gsbench
// serve -pprof` opts in.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.engine.Stats()
	writeJSON(w, http.StatusOK, Health{
		Status:   "ok",
		Draining: st.Draining,
		UptimeNS: st.UptimeNS,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "sweep body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad sweep body: %v", err)
		return
	}
	j, err := s.engine.Submit(req.Points)
	if err == ErrDraining {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		s.logger.Warn("sweep rejected", "remote", r.RemoteAddr, "err", err)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := SubmitResponse{ID: j.ID, Total: len(req.Points)}
	for i, p := range j.Points() {
		resp.Points = append(resp.Points, SubmitPoint{Index: i, Hash: p.Hash})
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, JobStatus{
		ID:       j.ID,
		Complete: j.Complete(),
		Totals:   j.Totals(),
		Points:   j.Points(),
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.engine.Jobs()
	if jobs == nil {
		jobs = []JobSummary{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

// handleEvents streams the job's progress as NDJSON: every event at
// sequence >= from (default 0), then live events until the terminal
// "done" event (or client disconnect). A reconnecting client passes
// ?from=<next sequence> to resume exactly where its stream broke.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	seq := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from=%q: want a non-negative integer", v)
			return
		}
		seq = n
	}
	s.logger.Debug("event stream opened", "job", j.ID, "from", seq, "remote", r.RemoteAddr)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, ch, done := j.EventsSince(seq)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		seq += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			// The snapshot and the completion flag come from one
			// critical section, so a complete job's batch already ends
			// with its terminal "done" event — everything is delivered.
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	doc, ok, err := s.engine.Cache().Get(hash)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no result for %s", hash)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

// handleMetrics writes the engine's self-observation metrics in the
// Prometheus text exposition format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.engine.WriteMetrics(w)
}
