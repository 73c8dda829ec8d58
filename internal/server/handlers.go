package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// JobView is the JSON shape of a job returned by POST /v1/runs and
// GET /v1/runs/{id}. Stats is present only on done jobs and is the same
// canonical serialization `spbsim -json` emits.
type JobView struct {
	ID        string          `json:"id"`
	Key       string          `json:"key"`
	Status    Status          `json:"status"`
	Spec      RunRequest      `json:"spec"`
	Cached    string          `json:"cached,omitempty"`
	Error     string          `json:"error,omitempty"`
	Committed uint64          `json:"committed"`
	Cycles    uint64          `json:"cycles"`
	FFInsts   uint64          `json:"ff_insts,omitempty"`
	IPC       float64         `json:"ipc"`
	Stats     json.RawMessage `json:"stats,omitempty"`
	TraceID   string          `json:"trace_id,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	// Recovered marks a job re-admitted from the durable journal after a
	// daemon restart; its ID and spec are the pre-crash originals.
	Recovered bool `json:"recovered,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	st, errMsg, cached, stats := j.status, j.errMsg, j.cached, j.stats
	j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Key:       j.key,
		Status:    st,
		Spec:      Request(j.spec),
		Cached:    cached,
		Error:     errMsg,
		Committed: j.committed.Load(),
		Cycles:    j.cycles.Load(),
		FFInsts:   j.ffInsts.Load(),
		Stats:     stats,
		TraceID:   j.trace.TraceID(),
		Recovered: j.recovered,
	}
	if j.tenant != nil {
		v.Tenant = j.tenant.Name
	}
	if v.Cycles > 0 {
		v.IPC = float64(v.Committed) / float64(v.Cycles)
	}
	return v
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/runs", s.timed("POST /v1/runs", s.handleSubmit))
	mux.HandleFunc("POST /v1/batch", s.handleBatch) // long-lived stream: kept out of the latency histogram
	mux.Handle("GET /v1/runs", s.timed("GET /v1/runs", s.handleList))
	mux.Handle("GET /v1/runs/{id}", s.timed("GET /v1/runs/{id}", s.handleGet))
	mux.Handle("GET /v1/runs/{id}/trace", s.timed("GET /v1/runs/{id}/trace", s.handleTrace))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents) // long-lived: kept out of the latency histogram
	mux.Handle("POST /v1/runs/{id}/cancel", s.timed("POST /v1/runs/{id}/cancel", s.handleCancel))
	mux.Handle("GET /healthz", s.timed("GET /healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
}

// timed wraps a handler with the per-endpoint latency histogram.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.metrics.ObserveLatency(endpoint, time.Since(start))
	})
}

// writeJSON emits compact JSON: embedded json.RawMessage payloads (the
// canonical stats set) pass through byte-identical to what `spbsim -json`
// prints, which an indenting encoder would destroy.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request bodies are bounded where they enter: a run spec is a few hundred
// bytes, and a batch holds at most maxBatchSpecs of them.
const (
	maxRunBody   = 64 << 10
	maxBatchBody = 64 << 20
)

// decodeStrict decodes exactly one JSON value from rd into v and refuses a
// field v does not have or anything but space after the value: a misspelt
// or retired knob must fail the request, not run the default.
func decodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// parseSpec decodes one run spec strictly and resolves it (RunRequest.Spec).
func parseSpec(rd io.Reader) (sim.RunSpec, error) {
	var req RunRequest
	if err := decodeStrict(rd, &req); err != nil {
		return sim.RunSpec{}, err
	}
	return req.Spec()
}

// badBody is the status that refuses a body: 413 past the bound of its
// http.MaxBytesReader, 400 otherwise.
func badBody(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleSubmit accepts a RunRequest. Cache hits return 200 with the full
// result; fresh or coalesced jobs return 202 (or block for the result when
// ?wait=1). A full queue returns 429 with Retry-After; a draining server
// returns 503; a body over maxRunBody returns 413.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, "%v", err)
		return
	}
	spec, err := parseSpec(http.MaxBytesReader(w, r.Body, maxRunBody))
	if err != nil {
		writeError(w, badBody(err), "bad run spec: %v", err)
		return
	}
	j, err := s.submit(spec, r.Header.Get(obs.TraceHeader), tn)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (%d jobs deep); retry later", s.cfg.queueDepth)
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		// Injected faults model transient server trouble: report them as
		// 503 so well-behaved clients retry instead of failing the sweep.
		var inj *faults.InjectedError
		if errors.As(err, &inj) {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// The request's interest in the job: an asynchronous submitter's pins it
	// for good (the client polls later), a waiter's is released on disconnect.
	j.retain()
	if wait := r.URL.Query().Get("wait"); wait != "1" && wait != "true" {
		v := j.view()
		code := http.StatusAccepted
		if v.Status.Terminal() {
			code = http.StatusOK
		}
		writeJSON(w, code, v)
		return
	}

	// Synchronous: hold the request open until the job finishes. If every
	// synchronous waiter disconnects first, the job is cancelled — an
	// abandoned request stops simulating.
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.view())
	case <-r.Context().Done():
		s.releaseWaiter(j)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		v := j.view()
		v.Stats = nil // keep the listing light
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": views})
}

// jobFor resolves the request's {id}, answering 404 itself — for an id that
// was never issued and for one evicted from the job table alike — when it
// returns nil.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	// Cancellation is a write: it needs a valid tenant key when tenants are
	// configured (any tenant may cancel any job — per-job ownership is
	// deliberately out of scope, jobs are shared by content address).
	if _, err := s.tenantFor(r); err != nil {
		writeError(w, http.StatusUnauthorized, "%v", err)
		return
	}
	if j := s.jobFor(w, r); j != nil {
		s.cancelJob(j, errors.New("cancelled by client request"))
		writeJSON(w, http.StatusAccepted, j.view())
	}
}

// handleTrace returns the job's span timeline (obs.TraceView). 404 covers
// both an unknown job and a daemon running with tracing disabled; the error
// message distinguishes them.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusNotFound, "no trace for run %q (tracing disabled)", j.id)
		return
	}
	writeJSON(w, http.StatusOK, j.trace.Snapshot())
}

// sseEvent is one progress (or terminal) event on an /events stream.
type sseEvent struct {
	ID        string  `json:"id"`
	Status    Status  `json:"status"`
	Committed uint64  `json:"committed"`
	Cycles    uint64  `json:"cycles"`
	FFInsts   uint64  `json:"ff_insts,omitempty"`
	IPC       float64 `json:"ipc"`
	Target    uint64  `json:"target_insts"`
	Error     string  `json:"error,omitempty"`
}

// handleEvents streams job progress as Server-Sent Events: a "progress"
// event every SSEInterval while the job runs, then one final "done" event.
// A disconnecting client just ends the stream; the job keeps running for
// whoever still holds interest in it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	s.metrics.SSESubscribers.Add(1)
	defer s.metrics.SSESubscribers.Add(-1)

	// Reconnect hint: clients that drop should retry quickly — the job keeps
	// running server-side, so a reconnect resumes progress seamlessly.
	fmt.Fprintf(w, "retry: %d\n\n", s.cfg.SSEInterval.Milliseconds())
	fl.Flush()

	send := func(event string) {
		j.mu.Lock()
		st, errMsg := j.status, j.errMsg
		j.mu.Unlock()
		ev := sseEvent{
			ID:        j.id,
			Status:    st,
			Committed: j.committed.Load(),
			Cycles:    j.cycles.Load(),
			FFInsts:   j.ffInsts.Load(),
			Target:    j.targetInsts,
			Error:     errMsg,
		}
		if ev.Cycles > 0 {
			ev.IPC = float64(ev.Committed) / float64(ev.Cycles)
		}
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	send("progress")
	ticker := time.NewTicker(s.cfg.SSEInterval)
	defer ticker.Stop()
	// Comment-line heartbeats keep idle connections alive through proxies
	// and let clients distinguish "quiet" from "dead". Both tickers stop on
	// every return path (client disconnect included) via the defers.
	heartbeat := time.NewTicker(s.cfg.sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			send("done")
			return
		case <-ticker.C:
			send("progress")
		case <-heartbeat.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		}
	}
}

// handleHealthz serves both probes. Plain GET /healthz is *liveness*: the
// process is up and answering, so it is always 200 — even while draining
// (a draining daemon is alive, just not accepting work). GET /healthz?ready=1
// is *readiness*: 200 only when the daemon can accept a new submission right
// now (not draining, queue has headroom); the body carries queue headroom
// and the disk tier's state either way so dispatchers (client.Pool) and
// operators can see *why* a backend is unready. A degraded disk tier is
// reported but does not unready the daemon — memory-only service is slower,
// not wrong.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	if r.URL.Query().Get("ready") == "" {
		status := "ok"
		if draining {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      status,
			"queue_depth": s.QueueDepth(),
			"inflight":    s.Inflight(),
			"workers":     s.cfg.Workers,
		})
		return
	}

	headroom := s.cfg.queueDepth - s.QueueDepth()
	if headroom < 0 {
		headroom = 0
	}
	degraded := s.Degraded()
	var reasons []string
	if draining {
		reasons = append(reasons, "draining")
	}
	if headroom == 0 {
		reasons = append(reasons, "queue full")
	}
	if degraded {
		reasons = append(reasons, "disk tier degraded (memory-only)")
	}
	ready := !draining && headroom > 0
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "unready", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"ready":          ready,
		"draining":       draining,
		"degraded":       degraded,
		"queue_headroom": headroom,
		"queue_depth":    s.QueueDepth(),
		"inflight":       s.Inflight(),
		"workers":        s.cfg.Workers,
		"reasons":        reasons,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
