package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spb/internal/obs"
)

func getTrace(t *testing.T, ts *httptest.Server, path string) (int, obs.TraceView) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv obs.TraceView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, tv
}

// spanIndex returns the position of the first span named name, or -1.
func spanIndex(tv obs.TraceView, name string) int {
	for i, sp := range tv.Spans {
		if sp.Name == name {
			return i
		}
	}
	return -1
}

// TestBatchTraceSpanCompleteness is the PR's acceptance core: a batched
// sweep yields a retrievable trace per spec whose top-level span durations
// sum — within scheduling slack — to the completion latency the client
// observed for that spec, with the lifecycle phases present and in order.
func TestBatchTraceSpanCompleteness(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, Tracer: obs.NewTracer(0, nil)})

	const sweepTraceID = "sweep-trace-0042"
	var breq BatchRequest
	for seed := uint64(1); seed <= 4; seed++ {
		req := smallSpec
		req.Seed = seed // unique points: every spec simulates
		breq.Specs = append(breq.Specs, req)
	}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, sweepTraceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d", resp.StatusCode)
	}

	// Client-observed completion latency: batch submission to the spec's
	// terminal NDJSON line.
	observed := map[string]time.Duration{} // job id -> latency
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if !item.Status.Terminal() {
			continue
		}
		if item.Status != StatusDone {
			t.Fatalf("spec %d ended %s: %s", item.Index, item.Status, item.Error)
		}
		if _, dup := observed[item.ID]; !dup {
			observed[item.ID] = time.Since(start)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 4 {
		t.Fatalf("got %d terminal jobs, want 4", len(observed))
	}

	const slack = 500 * time.Millisecond
	for id, clientLat := range observed {
		code, tv := getTrace(t, ts, "/v1/runs/"+id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET trace for %s = %d", id, code)
		}
		if tv.TraceID != sweepTraceID {
			t.Errorf("job %s trace_id = %q, want propagated %q", id, tv.TraceID, sweepTraceID)
		}
		if !tv.Done {
			t.Errorf("job %s trace not done", id)
		}
		// Lifecycle phases present and in order.
		order := []string{"submit", "queue-wait", "run", "stream-out"}
		last := -1
		for _, name := range order {
			idx := spanIndex(tv, name)
			if idx < 0 {
				t.Fatalf("job %s trace missing span %q; spans: %+v", id, name, tv.Spans)
			}
			if idx <= last {
				t.Errorf("job %s span %q out of order; spans: %+v", id, name, tv.Spans)
			}
			last = idx
		}
		// The simulator's nested sub-spans rode the context into the trace.
		for _, name := range []string{"run.build", "run.sim", "run.collect"} {
			if spanIndex(tv, name) < 0 {
				t.Errorf("job %s trace missing sim sub-span %q", id, name)
			}
		}
		// The top-level phases tile the client-observed latency: their sum
		// can fall short only by network/scheduling gaps, and can never
		// meaningfully exceed it.
		total := time.Duration(tv.TotalNS)
		if total <= 0 {
			t.Fatalf("job %s total_ns = %d", id, tv.TotalNS)
		}
		if total > clientLat+slack {
			t.Errorf("job %s span sum %v exceeds client-observed %v", id, total, clientLat)
		}
		if clientLat-total > slack {
			t.Errorf("job %s span sum %v unaccountably short of client-observed %v", id, total, clientLat)
		}
	}
}

// TestOneRoutePerOperation: a job's trace and its cancellation each have
// one route; the spellings beside them are not served.
func TestOneRoutePerOperation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, Tracer: obs.NewTracer(0, nil)})
	_, v := postRun(t, ts, smallSpec, "?wait=1")
	if code, _ := getTrace(t, ts, "/v1/jobs/"+v.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/{id}/trace = %d, want 404", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/runs/{id} = %d, want 405", resp.StatusCode)
	}
}

// TestTraceDisabled: without a Tracer the endpoint 404s and job views carry
// no trace_id — tracing must be invisible when off.
func TestTraceDisabled(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, v := postRun(t, ts, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	if v.TraceID != "" {
		t.Fatalf("trace_id %q leaked with tracing disabled", v.TraceID)
	}
	code, _ := getTrace(t, ts, "/v1/runs/"+v.ID+"/trace")
	if code != http.StatusNotFound {
		t.Fatalf("GET trace with tracing disabled = %d, want 404", code)
	}
	code, _ = getTrace(t, ts, "/v1/runs/nosuch/trace")
	if code != http.StatusNotFound {
		t.Fatalf("GET trace for unknown job = %d, want 404", code)
	}
}

// TestCacheHitTrace: a cache-answered submission still gets a trace — a
// submit span plus the cache-hit marker — so sweep forensics can tell
// "fast because cached" from "fast because small".
func TestCacheHitTrace(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, Tracer: obs.NewTracer(0, nil)})
	if _, v := postRun(t, ts, smallSpec, "?wait=1"); v.Status != StatusDone {
		t.Fatalf("warm-up run: %s (%s)", v.Status, v.Error)
	}
	_, v := postRun(t, ts, smallSpec, "?wait=1")
	if v.Cached != "memory" {
		t.Fatalf("second run cached = %q, want memory", v.Cached)
	}
	code, tv := getTrace(t, ts, "/v1/runs/"+v.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d", code)
	}
	if spanIndex(tv, "submit") < 0 || spanIndex(tv, "cache-hit") < 0 {
		t.Fatalf("cache-hit trace spans = %+v, want submit + cache-hit", tv.Spans)
	}
	if spanIndex(tv, "run") >= 0 || spanIndex(tv, "queue-wait") >= 0 {
		t.Fatalf("cache hit must not record run/queue-wait spans: %+v", tv.Spans)
	}
}

// TestSSERetryHintAndHeartbeat: the events stream opens with a retry: hint
// and emits comment heartbeats while the job is quiet.
func TestSSERetryHintAndHeartbeat(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:      1,
		SSEInterval:  time.Hour, // no progress events after the first: heartbeats must carry the stream
		sseHeartbeat: 5 * time.Millisecond,
	})
	resp, v := postRun(t, ts, longSpec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	defer func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs/"+v.ID+"/cancel", nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Error(err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	var sawRetry, sawHeartbeat bool
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() && !(sawRetry && sawHeartbeat) {
		line := sc.Text()
		if strings.HasPrefix(line, "retry: ") {
			sawRetry = true
		}
		if strings.HasPrefix(line, ":") {
			sawHeartbeat = true
		}
	}
	if !sawRetry || !sawHeartbeat {
		t.Fatalf("stream ended: sawRetry=%v sawHeartbeat=%v (err %v)", sawRetry, sawHeartbeat, sc.Err())
	}
}

// TestMetricsPhaseHistogramsAndTopDown: after one simulated run with a disk
// tier, /metrics exposes the phase latency histograms with observations in
// them and the aggregated Top-Down cycle counters.
func TestMetricsPhaseHistogramsAndTopDown(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	if _, v := postRun(t, ts, smallSpec, "?wait=1"); v.Status != StatusDone {
		t.Fatalf("run: %s (%s)", v.Status, v.Error)
	}
	waitStoreWrites(t, s, 1)
	// One batch round so the stream histogram has an observation too.
	body, _ := json.Marshal(BatchRequest{Specs: []RunRequest{smallSpec}})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"spbd_queue_wait_seconds_count 1",
		"spbd_run_duration_seconds_count 1",
		"spbd_store_read_seconds_count", // read probed on the cold submit
		"spbd_store_write_seconds_count 1",
		"spbd_batch_stream_seconds_count 1",
		"spbd_queue_wait_seconds_bucket",
		`spbd_topdown_cycles_total{class="all"}`,
		`spbd_topdown_cycles_total{class="sb_stall"}`,
		"spbd_topdown_sb_bound_runs_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	// The run actually produced cycles: the all-class counter is nonzero.
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, `spbd_topdown_cycles_total{class="all"}`) {
			var v uint64
			if _, err := fmt.Sscanf(strings.Fields(line)[1], "%d", &v); err != nil || v == 0 {
				t.Fatalf("topdown all-cycles line %q: v=%d err=%v", line, v, err)
			}
		}
	}
}

// TestTraceLogNDJSON: finished traces land as one NDJSON line each on the
// tracer's sink, parseable back into TraceViews.
func TestTraceLogNDJSON(t *testing.T) {
	var buf syncBuffer
	_, ts := testServer(t, Config{Workers: 1, Tracer: obs.NewTracer(0, &buf)})
	if _, v := postRun(t, ts, smallSpec, "?wait=1"); v.Status != StatusDone {
		t.Fatalf("run: %s (%s)", v.Status, v.Error)
	}
	// The worker finishes the trace after it has released the ?wait=1 client.
	waitFor(t, 5*time.Second, "the finished trace to reach the sink", func() bool {
		return strings.HasSuffix(buf.String(), "\n")
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("sink got %d lines, want 1:\n%s", len(lines), buf.String())
	}
	var tv obs.TraceView
	if err := json.Unmarshal([]byte(lines[0]), &tv); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", lines[0], err)
	}
	if !tv.Done || spanIndex(tv, "run") < 0 {
		t.Fatalf("sink line incomplete: %+v", tv)
	}
}

// syncBuffer is a locked bytes.Buffer: the tracer writes from worker
// goroutines while the test reads.
type syncBuffer struct {
	buf bytes.Buffer
	m   sync.Mutex
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.m.Lock()
	defer b.m.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.m.Lock()
	defer b.m.Unlock()
	return b.buf.String()
}
