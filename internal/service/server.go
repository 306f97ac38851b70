package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sse"
)

// maxSpecBytes bounds a POST /v1/jobs body; a job spec is a page of
// JSON, anything larger is a client bug or abuse.
const maxSpecBytes = 1 << 20

// Server is the HTTP face of a Manager: the /v1 job API, the SSE
// progress streams and the Prometheus scrape endpoint.
//
//	POST   /v1/jobs             submit (202; 400 invalid; 429 queue full)
//	GET    /v1/jobs             list jobs (?state=/?class= filters,
//	                            ?limit=/?offset= pagination in submit order)
//	GET    /v1/jobs/{id}        job detail (+ result when done)
//	POST   /v1/jobs/{id}/cancel cancel queued/running job
//	DELETE /v1/jobs/{id}        alias for cancel
//	POST   /v1/jobs/{id}/retry  resurrect a dead-lettered job (409 if not dead)
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/healthz          structured health snapshot (uptime, queue,
//	                            pool occupancy, job table, spool state)
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             plain-text liveness probe
type Server struct {
	m   *Manager
	mux *http.ServeMux
	log *log.Logger
	obs obs.Observer
}

// NewServer builds the handler stack. reg may be nil (then /metrics
// serves 404); lg may be nil (then requests are not logged).
func NewServer(m *Manager, reg *obs.Registry, lg *log.Logger) *Server {
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	s := &Server{m: m, mux: http.NewServeMux(), log: lg, obs: m.obs}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/jobs/{id}/retry", s.handleRetry)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		s.mux.Handle("GET /metrics", reg.Handler())
	}
	return s
}

// NewHTTPServer returns the daemon's http.Server for h on addr. Its
// request contexts are cancelled as soon as Shutdown starts. Shutdown
// waits for active connections but never cancels a handler itself, so an
// attached SSE stream (job events, alert events) would otherwise hold the
// drain until its deadline; only the streaming loop watches the request
// context, so other in-flight requests still finish.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	srv.RegisterOnShutdown(cancel)
	return srv
}

// Handle mounts an extra handler subtree on the server's mux — the
// daemon uses it to attach the dist worker API under /v1/worker/.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// ServeHTTP implements http.Handler with request logging and the HTTP
// request counter wrapped around the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	if s.obs != nil {
		s.obs.Add(obs.Series(MetricHTTPRequests, "code", strconv.Itoa(sw.code)), 1)
	}
	s.log.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.code, time.Since(start).Round(time.Microsecond))
}

// statusWriter records the response code for logging/metrics. Flush is
// forwarded so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON sends v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: " + err.Error()})
		return
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: trailing data after the spec"})
		return
	}
	j, err := s.m.Submit(spec)
	switch {
	case errors.Is(err, ErrBadSpec):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back. The hint is
		// heuristic (one mean job duration would be better), a constant
		// keeps it honest and cheap.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case err != nil:
		// The spec was fine; durably recording the job failed.
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, ok := pageParam(w, q.Get("limit"), -1)
	if !ok {
		return
	}
	offset, ok := pageParam(w, q.Get("offset"), 0)
	if !ok {
		return
	}
	// Jobs() lists in stable submit order (oldest first, ID tie-break),
	// so a pagination window is meaningful across requests as long as no
	// older job disappears.
	jobs := s.m.Jobs()
	state := q.Get("state")
	class := q.Get("class")
	if state != "" || class != "" {
		filtered := make([]Job, 0, len(jobs))
		for _, j := range jobs {
			if state != "" && string(j.State) != state {
				continue
			}
			if class != "" && j.Class != class {
				continue
			}
			filtered = append(filtered, j)
		}
		jobs = filtered
	}
	// The window applies after filtering; total counts the filtered set
	// so clients can page without a separate count request.
	total := len(jobs)
	if offset > len(jobs) {
		offset = len(jobs)
	}
	jobs = jobs[offset:]
	if limit >= 0 && limit < len(jobs) {
		jobs = jobs[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "total": total})
}

// pageParam parses one non-negative pagination query value, writing the
// 400 itself when the value is malformed. Empty means the default.
func pageParam(w http.ResponseWriter, v string, def int) (int, bool) {
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("service: bad pagination value %q", v)})
		return 0, false
	}
	return n, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.m.Cancel(id)
	switch {
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.Is(err, ErrJobDone):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		j, _ := s.m.Job(id)
		writeJSON(w, http.StatusOK, j)
	}
}

func (s *Server) handleRetry(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Retry(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.Is(err, ErrNotDead):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case errors.Is(err, ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, j)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, err := s.m.Events(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	sse.Serve(w, r, f)
}
