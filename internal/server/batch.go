package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// The batch endpoint accepts a whole sweep in one request and streams
// per-spec results back as newline-delimited JSON, so a five-figure grid
// costs one connection instead of N submit+poll loops. Specs are
// deduplicated twice before any simulation is enqueued — within the request
// (identical points share one job) and against the active jobs and the
// result tiers (submit coalesces, then walks them) — and the surviving misses are
// dispatched longest-processing-time first so the sweep's makespan is not
// set by an 8-core PARSEC or ideal-SB straggler landing last.

// maxBatchSpecs bounds one batch request; larger sweeps should be split
// across requests (or backends).
const maxBatchSpecs = 65536

// batchQueuePoll is how often a batch dispatcher re-tries enqueueing when
// the worker queue is full (other clients can saturate it independently of
// the batch's own in-flight bound).
const batchQueuePoll = 25 * time.Millisecond

// BatchRequest is the body of POST /v1/batch as a client writes it.
type BatchRequest struct {
	Specs []RunRequest `json:"specs"`
}

// BatchItem is one NDJSON line of a batch response. Every spec produces an
// acknowledgment line (status "queued", carrying the job id so clients can
// cancel or hedge individual points) unless it was answered from cache, and
// exactly one terminal line (status "done", "failed" or "cancelled"). Done
// lines carry the canonical stats serialization, the one encoding of a
// finished run (the disk cache stores the same bytes), from which
// sim.ParseStats rebuilds the sim.Result an in-process run makes. Duplicate
// specs within the request produce one line per index, sharing a job.
type BatchItem struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	ID     string          `json:"id,omitempty"`
	Status Status          `json:"status"`
	Cached string          `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Stats  json.RawMessage `json:"stats,omitempty"`
}

// batchWriter serializes NDJSON lines onto the response; dispatcher and
// per-job completion goroutines write concurrently. It also hosts the
// "batch.stream" fault site: injected delays slow the stream, and an
// injected cut severs the TCP connection mid-response.
type batchWriter struct {
	mu     sync.Mutex
	w      http.ResponseWriter
	fl     http.Flusher
	faults *faults.Injector
	cut    bool // stream severed by an injected fault; later writes are no-ops
}

func (bw *batchWriter) write(item BatchItem) {
	data, err := json.Marshal(item)
	if err != nil {
		return
	}
	bw.mu.Lock()
	defer bw.mu.Unlock()
	if bw.cut {
		return
	}
	bw.faults.Sleep("batch.stream", nil)
	if bw.faults.Cut("batch.stream") {
		// Sever the connection underneath the response, like a mid-stream
		// network failure, WITHOUT cancelling the request context: the
		// batch's jobs stay retained and complete into the cache, so a
		// resuming client coalesces or cache-hits instead of re-simulating
		// — exactly-once survives the truncation. (write is called from
		// non-handler goroutines, so panicking with http.ErrAbortHandler is
		// not an option here.)
		if hj, ok := bw.w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		bw.cut = true
		return
	}
	bw.w.Write(data)
	bw.w.Write([]byte{'\n'})
	bw.fl.Flush()
}

// batchGroup is one unique simulation point and the request indices that
// asked for it.
type batchGroup struct {
	spec    sim.RunSpec
	key     string
	indices []int
}

// terminalItems renders the job's terminal state as one BatchItem per
// requesting index.
func terminalItems(j *job, indices []int) []BatchItem {
	j.mu.Lock()
	st, errMsg, cached, stats := j.status, j.errMsg, j.cached, j.stats
	j.mu.Unlock()
	items := make([]BatchItem, len(indices))
	for i, idx := range indices {
		items[i] = BatchItem{
			Index: idx, Key: j.key, ID: j.id, Status: st,
			Cached: cached, Error: errMsg, Stats: stats,
		}
	}
	return items
}

// handleBatch accepts N specs in one request and streams per-spec results
// as NDJSON while they finish. Disconnecting releases the batch's interest
// in every outstanding job: points nobody else is waiting on stop
// simulating, exactly like an abandoned ?wait=1 submission.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tn, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, "%v", err)
		return
	}
	// The specs are decoded one by one below, so a bad one is refused with
	// its index.
	var req struct{ Specs []json.RawMessage }
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBatchBody), &req); err != nil {
		writeError(w, badBody(err), "bad batch request: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no specs")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeError(w, http.StatusBadRequest, "batch has %d specs, max %d", len(req.Specs), maxBatchSpecs)
		return
	}
	// In-request dedup: identical points share one job and one simulation.
	byKey := make(map[string]*batchGroup, len(req.Specs))
	var groups []*batchGroup
	for i, raw := range req.Specs {
		spec, err := parseSpec(bytes.NewReader(raw))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad spec at index %d: %v", i, err)
			return
		}
		spec = spec.Normalized()
		key := Key(spec)
		g, ok := byKey[key]
		if !ok {
			g = &batchGroup{spec: spec, key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.indices = append(g.indices, i)
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	// LPT dispatch: hand the expensive points to workers first. A shared
	// warmup prefix is its group's work and does not count towards a point.
	sort.SliceStable(groups, func(a, b int) bool {
		return groups[a].spec.CostEstimate() > groups[b].spec.CostEstimate()
	})

	s.metrics.BatchRequests.Add(1)
	s.metrics.BatchSpecs.Add(uint64(len(req.Specs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	bw := &batchWriter{w: w, fl: fl, faults: s.cfg.Faults}
	traceID := r.Header.Get(obs.TraceHeader)
	batchStart := time.Now()

	// streamOut writes a job's terminal lines, stamps the "stream-out" span
	// on its trace, and records how long the spec took from batch acceptance
	// to its terminal NDJSON line — the server-side view of the latency a
	// sweeping client observes per point.
	streamOut := func(j *job, indices []int) {
		outStart := time.Now()
		for _, item := range terminalItems(j, indices) {
			bw.write(item)
		}
		outEnd := time.Now()
		j.trace.Span("stream-out", outStart, outEnd)
		s.metrics.BatchStream.Observe(outEnd.Sub(batchStart))
	}

	// The in-flight bound keeps one batch from monopolizing the worker
	// queue: at most queueDepth of its points are enqueued-or-running at a
	// time, and a slot frees only when a point reaches a terminal state.
	sem := make(chan struct{}, s.cfg.queueDepth)
	ctx := r.Context()
	var wg sync.WaitGroup
	failRest := func(gs []*batchGroup, err error) {
		for _, g := range gs {
			for _, idx := range g.indices {
				bw.write(BatchItem{Index: idx, Key: g.key, Status: StatusFailed, Error: err.Error()})
			}
		}
	}

dispatch:
	for gi, g := range groups {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		var j *job
		for {
			var err error
			j, err = s.submit(g.spec, traceID, tn)
			if err == nil {
				break
			}
			var inj *faults.InjectedError
			if errors.Is(err, errQueueFull) || errors.As(err, &inj) {
				// A saturated queue or an injected transient submission
				// fault — both clear with time; wait and resubmit rather
				// than failing the point.
				select {
				case <-time.After(batchQueuePoll):
					continue
				case <-ctx.Done():
					<-sem
					break dispatch
				}
			}
			// Draining or a marshalling failure: the rest of the batch
			// cannot run either; report and stop dispatching.
			failRest(groups[gi:], err)
			<-sem
			wg.Wait()
			return
		}
		j.retain() // the batch's interest in this point
		if st := func() Status { j.mu.Lock(); defer j.mu.Unlock(); return j.status }(); st.Terminal() {
			streamOut(j, g.indices)
			<-sem
			continue
		}
		for _, idx := range g.indices {
			bw.write(BatchItem{Index: idx, Key: g.key, ID: j.id, Status: StatusQueued})
		}
		wg.Add(1)
		go func(j *job, g *batchGroup) {
			defer wg.Done()
			defer func() { <-sem }()
			select {
			case <-j.done:
				streamOut(j, g.indices)
			case <-ctx.Done():
				s.releaseWaiter(j)
			}
		}(j, g)
	}
	wg.Wait()
}

// ErrorOf returns the item's error as a Go error (nil for non-failed items).
func (it BatchItem) ErrorOf() error {
	if it.Status == StatusDone || !it.Status.Terminal() {
		return nil
	}
	msg := it.Error
	if msg == "" {
		msg = string(it.Status)
	}
	return fmt.Errorf("spbd: batch spec %d ended %s: %s", it.Index, it.Status, msg)
}
