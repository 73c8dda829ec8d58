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
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/obs"
	"spb/internal/sim"
)

// testServer builds a server + httptest front end with fast SSE ticks and a
// hard stop on cleanup.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SSEInterval == 0 {
		cfg.SSEInterval = 5 * time.Millisecond
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// waitStoreWrites blocks until s has finished n disk-tier writes. A job's
// ending releases a ?wait=1 client before it persists the result (the journal
// covers the window, and the fsync stays off the request's latency), so a test that
// reads the disk tier or the store-write histogram right after a reply must
// first wait for the write it expects.
func waitStoreWrites(t *testing.T, s *Server, n uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("disk-tier write %d", n), func() bool {
		return s.Metrics().StoreWrite.Count() >= n
	})
}

func postRun(t *testing.T, ts *httptest.Server, req RunRequest, query string) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("bad response %s: %v", data, err)
		}
	}
	return resp, v
}

// smallSpec is a quick (~10ms) simulation point used across the tests.
var smallSpec = RunRequest{Workload: "bwaves", Policy: "spb", SB: 14, Insts: 10_000}

// longSpec is effectively unbounded at test timescales; every test that
// submits it must cancel it.
var longSpec = RunRequest{Workload: "bwaves", Policy: "spb", SB: 14, Insts: 2_000_000_000}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// blockWorker submits the long spec and waits until it occupies a worker,
// returning its id for cleanup. With Workers:1 this pins the whole pool.
func blockWorker(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, v := postRun(t, ts, longSpec, "")
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("blocker POST = %d", resp.StatusCode)
	}
	waitStatus(t, ts, v.ID, StatusRunning)
	return v.ID
}

func cancelRun(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestColdRunMatchesInProcessStats is the acceptance core: a cold POST
// returns byte-identical stats to running the same spec in-process (what
// `spbsim -json` prints).
func TestColdRunMatchesInProcessStats(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	resp, v := postRun(t, ts, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	if v.Cached != "" {
		t.Fatalf("cold run reported cached=%q", v.Cached)
	}
	spec, err := smallSpec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Stats) != string(want) {
		t.Fatalf("service stats differ from in-process stats:\n  got  %s\n  want %s", v.Stats, want)
	}
	if got := s.Runner().Runs(); got != 1 {
		t.Fatalf("runner executed %d simulations, want 1", got)
	}
}

// TestSecondRequestServedFromMemoryCache: an identical repeat request must
// not re-simulate — the runner's run count stays put and the response says
// which tier answered.
func TestSecondRequestServedFromMemoryCache(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	_, first := postRun(t, ts, smallSpec, "?wait=1")
	if first.Status != StatusDone {
		t.Fatalf("first run: %s (%s)", first.Status, first.Error)
	}
	runs := s.Runner().Runs()

	resp, second := postRun(t, ts, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d", resp.StatusCode)
	}
	if second.Cached != "memory" {
		t.Fatalf("second run cached = %q, want memory", second.Cached)
	}
	if string(second.Stats) != string(first.Stats) {
		t.Fatal("cache hit returned different stats")
	}
	if got := s.Runner().Runs(); got != runs {
		t.Fatalf("cache hit re-ran the simulation (%d -> %d runs)", runs, got)
	}
	if s.Metrics().CacheHitsMemory.Load() != 1 {
		t.Fatalf("memory hit metric = %d, want 1", s.Metrics().CacheHitsMemory.Load())
	}

	// A spec spelled with explicit defaults is the same point → still a hit.
	explicit := smallSpec
	explicit.Cores = 1
	explicit.WindowN = 48
	explicit.Seed = 1
	_, third := postRun(t, ts, explicit, "?wait=1")
	if third.Cached != "memory" {
		t.Fatalf("defaulted-field respelling missed the cache (cached=%q)", third.Cached)
	}
}

// TestDiskTierSurvivesRestart: a second server sharing the cache directory
// answers from disk without simulating, and re-seeds its memory tier.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, Config{Workers: 2, CacheDir: dir})
	_, first := postRun(t, ts1, smallSpec, "?wait=1")
	if first.Status != StatusDone {
		t.Fatalf("first run: %s (%s)", first.Status, first.Error)
	}
	waitStoreWrites(t, s1, 1)

	s2, ts2 := testServer(t, Config{Workers: 2, CacheDir: dir})
	resp, second := postRun(t, ts2, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart POST = %d", resp.StatusCode)
	}
	if second.Cached != "disk" {
		t.Fatalf("restarted server cached = %q, want disk", second.Cached)
	}
	if string(second.Stats) != string(first.Stats) {
		t.Fatal("disk tier returned different stats")
	}
	if s2.Runner().Runs() != 0 {
		t.Fatalf("restarted server simulated %d times, want 0", s2.Runner().Runs())
	}
	// The disk hit re-seeded memory: a third request is a memory hit.
	_, third := postRun(t, ts2, smallSpec, "?wait=1")
	if third.Cached != "memory" {
		t.Fatalf("post-disk-hit request cached = %q, want memory", third.Cached)
	}
}

// TestDaemonHoldsItsWorkersMachinesAndABoundedMemo: what a loaded spbd keeps
// resident is planned for, not luck. 200 never-seen specs through two workers,
// the collector running all the while, build two machines' cache arrays in
// all; and once the Runner's memo has forgotten a spec, the disk tier answers
// for it byte for byte, as it would after a restart.
func TestDaemonHoldsItsWorkersMachinesAndABoundedMemo(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	m := config.Skylake()
	levels := []config.CacheConfig{m.L1D, m.L2, m.L3}
	built := func() (n [3]uint64) {
		for i, c := range levels {
			n[i] = cache.ArenasBuilt(c.SizeBytes, c.Ways)
		}
		return n
	}
	before := built()
	req := func(seed int) RunRequest {
		r := smallSpec
		r.Insts, r.Seed = 2000, uint64(seed)
		return r
	}
	var first JobView
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < 200; i += 2 {
				_, v := postRun(t, ts, req(1000+i), "?wait=1")
				if v.Status != StatusDone || v.Cached != "" {
					t.Errorf("spec %d: status %s, cached %q, want a cold run", i, v.Status, v.Cached)
					return
				}
				if i == 0 {
					first = v
				}
				if i%10 == c {
					runtime.GC()
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, was := range before {
		if got := built()[i] - was; got > 2 {
			t.Errorf("200 runs on two workers built %d %s arenas, want at most 2", got, levels[i].Name)
		}
	}
	waitStoreWrites(t, s, 200)

	spec, err := req(1000).Spec()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); ; i++ {
		if _, held := s.Runner().Lookup(spec); !held {
			break
		}
		if i > 1<<16 {
			t.Fatal("the memo still holds a spec after 65536 newer ones")
		}
		filler := spec
		filler.Seed = 1<<32 + i
		s.Runner().Put(filler, sim.Result{})
	}
	_, again := postRun(t, ts, req(1000), "?wait=1")
	if again.Cached != "disk" || string(again.Stats) != string(first.Stats) {
		t.Fatalf("a spec the memo forgot answered cached=%q, stats equal %v; want the disk tier's bytes", again.Cached, string(again.Stats) == string(first.Stats))
	}
	if got := s.Runner().Runs(); got != 200 {
		t.Fatalf("Runs = %d, want 200: nothing is simulated twice", got)
	}
}

// TestDuplicateSubmissionCoalesces: two concurrent async submissions of the
// same spec share one job and one simulation.
func TestDuplicateSubmissionCoalesces(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	resp1, v1 := postRun(t, ts, longSpec, "")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d", resp1.StatusCode)
	}
	resp2, v2 := postRun(t, ts, longSpec, "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST = %d", resp2.StatusCode)
	}
	if v1.ID != v2.ID {
		t.Fatalf("duplicate submission got a fresh job: %s vs %s", v1.ID, v2.ID)
	}
	if s.Metrics().RunsCoalesced.Load() != 1 {
		t.Fatalf("coalesced metric = %d, want 1", s.Metrics().RunsCoalesced.Load())
	}
	// Cleanup: stop the long job.
	http.Post(ts.URL+"/v1/runs/"+v1.ID+"/cancel", "", nil)
}

// TestServerDefaults pins what a daemon built from its deployment settings
// alone runs with: a FIFO of 64 jobs, progress events every 250 ms, and an
// fsync behind every disk-store write — the discipline DESIGN §8.6's kill -9
// promise stands on. The journal has no unsynced write path to check.
func TestServerDefaults(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir(), JournalPath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := cap(s.queue); n != 64 {
		t.Errorf("queue holds %d jobs, want 64", n)
	}
	if d := s.cfg.SSEInterval; d != 250*time.Millisecond {
		t.Errorf("SSE interval = %v, want 250ms", d)
	}
	if !s.tiers.store.Sync {
		t.Error("disk-store writes are not fsynced")
	}
}

// TestQueueFullBackpressure: with one worker pinned and a queue of one, the
// third submission must be rejected with 429 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, queueDepth: 1})
	specN := func(n uint64) RunRequest {
		r := longSpec
		r.Seed = n // distinct seeds defeat dedup so each occupies a slot
		return r
	}
	_, v1 := postRun(t, ts, specN(1), "") // taken by the worker
	waitStatus(t, ts, v1.ID, StatusRunning)
	_, v2 := postRun(t, ts, specN(2), "") // sits in the queue

	resp3, _ := postRun(t, ts, specN(3), "")
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST = %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if s.Metrics().QueueRejected.Load() != 1 {
		t.Fatalf("rejected metric = %d, want 1", s.Metrics().QueueRejected.Load())
	}
	for _, id := range []string{v1.ID, v2.ID} {
		http.Post(ts.URL+"/v1/runs/"+id+"/cancel", "", nil)
	}
}

// TestQueueFull: admit refuses a job past queueDepth waiting ones with
// errQueueFull and leaves it as it was: not admitted, not registered, and
// the queue still queueDepth deep.
func TestQueueFull(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, queueDepth: 2})
	defer cancelRun(t, ts, blockWorker(t, ts))
	admit := func(seed uint64) (*job, error) {
		spec := sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 10_000, Seed: seed}
		j := s.newJob("", Key(spec), spec, nil, "", time.Now())
		_, err := s.admit(j)
		return j, err
	}
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := admit(seed); err != nil {
			t.Fatalf("admit %d of 2 = %v", seed, err)
		}
	}
	j, err := admit(3)
	if err != errQueueFull {
		t.Fatalf("admit past the depth = %v, want errQueueFull", err)
	}
	if j.admitted || s.jobByID(j.id) != nil {
		t.Error("the refused job was admitted or registered")
	}
	if d := s.QueueDepth(); d != 2 {
		t.Errorf("QueueDepth = %d after a refusal, want 2", d)
	}
	if n := s.Metrics().QueueRejected.Load(); n != 1 {
		t.Errorf("QueueRejected = %d, want 1", n)
	}
}

// TestCloseDrainSemantics: Drain closes the queue the way a channel closes —
// admission is refused from then on, the jobs already queued still run to
// completion, and then the workers exit.
func TestCloseDrainSemantics(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	blocker := blockWorker(t, ts)
	var queued []string
	for seed := uint64(1); seed <= 2; seed++ {
		req := smallSpec
		req.Seed = seed
		_, v := postRun(t, ts, req, "")
		queued = append(queued, v.ID)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, 5*time.Second, "the drain to start", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	late := sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 10_000, Seed: 99}
	if _, err := s.admit(s.newJob("", Key(late), late, nil, "", time.Now())); err != errDraining {
		t.Fatalf("admit during the drain = %v, want errDraining", err)
	}
	cancelRun(t, ts, blocker)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want a clean drain", err)
	}
	for _, id := range queued {
		if v := s.jobByID(id).view(); v.Status != StatusDone {
			t.Errorf("queued job %s ended %s (%s) across the drain, want done", id, v.Status, v.Error)
		}
	}
	if d := s.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth = %d after the drain, want 0", d)
	}
}

// TestQueueServesInSubmitOrder: the queue hands jobs to the workers in the
// order they were admitted. Behind a 1-worker daemon's pinned worker, eight
// distinct submissions leave the queue in submission order, and one batch's
// points in its longest-first dispatch order; the order is read from the ends
// of the jobs' queue-wait spans.
func TestQueueServesInSubmitOrder(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, Tracer: obs.NewTracer(0, nil)})
	requireDequeuedInOrder := func(what string, ids []string) {
		t.Helper()
		var last time.Time
		for i, id := range ids {
			j := s.jobByID(id)
			select {
			case <-j.done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: job %s never ended", what, id)
			}
			tv := j.trace.Snapshot()
			k := spanIndex(tv, "queue-wait")
			if k < 0 {
				t.Fatalf("%s: job %s has no queue-wait span: %+v", what, id, tv.Spans)
			}
			if end := tv.Spans[k].End; i > 0 && !end.After(last) {
				t.Fatalf("%s: job %d (%s) left the queue at %v, not after job %d at %v", what, i, id, end, i-1, last)
			} else {
				last = end
			}
		}
	}

	blocker := blockWorker(t, ts)
	var ids []string
	for seed := uint64(1); seed <= 8; seed++ {
		req := smallSpec
		req.Seed = seed
		resp, v := postRun(t, ts, req, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", seed, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	cancelRun(t, ts, blocker)
	requireDequeuedInOrder("submissions", ids)

	// The batch lists its points cheapest first; it dispatches them longest
	// first, and that is the order they must run in.
	blocker = blockWorker(t, ts)
	var breq BatchRequest
	for i := 0; i < 8; i++ {
		req := smallSpec
		req.Insts, req.Seed = uint64(1000*(i+1)), 100
		breq.Specs = append(breq.Specs, req)
	}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	byIndex := make([]string, len(breq.Specs))
	acked := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var it BatchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if it.Status == StatusQueued {
			byIndex[it.Index] = it.ID
			if acked++; acked == len(byIndex) {
				cancelRun(t, ts, blocker) // every point is queued: let them run
			}
		}
	}
	if acked != len(byIndex) {
		t.Fatalf("batch acknowledged %d of %d points as queued", acked, len(byIndex))
	}
	ids = ids[:0]
	for i := len(byIndex) - 1; i >= 0; i-- { // costliest (most instructions) first
		ids = append(ids, byIndex[i])
	}
	requireDequeuedInOrder("batch", ids)
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return v
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s ended %s (%s) while waiting for %s", id, v.Status, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// TestCancellationHaltsCoreLoop is the acceptance check that cancelling a
// run actually stops the simulation: after the cancel is acknowledged the
// committed-instruction count must stay put.
func TestCancellationHaltsCoreLoop(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	_, v := postRun(t, ts, longSpec, "")
	waitStatus(t, ts, v.ID, StatusRunning)

	// Let it make observable progress first.
	deadline := time.Now().Add(5 * time.Second)
	var before JobView
	for {
		before = waitStatus(t, ts, v.ID, StatusRunning)
		if before.Committed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never reported progress")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/runs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}

	// The worker observes the cancel within progressEvery rounds; wait for
	// the terminal state, then assert the core loop is actually halted.
	var after JobView
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&after)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if after.Status.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if after.Status != StatusCancelled {
		t.Fatalf("status after cancel = %s (%s), want cancelled", after.Status, after.Error)
	}
	if s.Metrics().RunsCancelled.Load() != 1 {
		t.Fatalf("cancelled metric = %d, want 1", s.Metrics().RunsCancelled.Load())
	}

	committed := after.Committed
	time.Sleep(50 * time.Millisecond)
	resp2, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var later JobView
	err = json.NewDecoder(resp2.Body).Decode(&later)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if later.Committed != committed {
		t.Fatalf("simulation kept running after cancel: committed %d -> %d", committed, later.Committed)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight = %d after cancel, want 0", s.Inflight())
	}
}

// TestSSEProgressAndDisconnect: a subscriber sees progress events with
// advancing counters and a final done event; a subscriber that disconnects
// mid-stream is released (gauge returns to zero) without disturbing the
// job.
func TestSSEProgressAndDisconnect(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	_, v := postRun(t, ts, longSpec, "")
	waitStatus(t, ts, v.ID, StatusRunning)

	// Subscriber 1: disconnects after the first event.
	ctx1, cancel1 := context.WithCancel(context.Background())
	req1, _ := http.NewRequestWithContext(ctx1, "GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	resp1, err := http.DefaultClient.Do(req1)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp1.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp1.Body)
	if _, err := br.ReadString('\n'); err != nil { // first "event:" line arrives
		t.Fatal(err)
	}
	if got := s.Metrics().SSESubscribers.Load(); got != 1 {
		t.Fatalf("subscriber gauge = %d, want 1", got)
	}
	cancel1()
	resp1.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().SSESubscribers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected SSE subscriber never released")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The job survived its observer.
	waitStatus(t, ts, v.ID, StatusRunning)

	// Subscriber 2: reads progress until the job is cancelled, expects the
	// terminal "done"-stream event carrying the cancelled status.
	type ev struct {
		name string
		data sseEvent
	}
	events := make(chan ev, 64)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	req2, _ := http.NewRequestWithContext(ctx2, "GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp2.Body)
		var name string
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				name = strings.TrimPrefix(line, "event: ")
			} else if strings.HasPrefix(line, "data: ") {
				var d sseEvent
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d) == nil {
					events <- ev{name, d}
				}
				if name == "done" {
					return
				}
			}
		}
	}()

	for e := range events {
		if e.name == "progress" && e.data.Status == StatusRunning {
			if e.data.Target == 0 {
				t.Fatalf("progress event missing target_insts: %+v", e.data)
			}
			break
		}
	}
	http.Post(ts.URL+"/v1/runs/"+v.ID+"/cancel", "", nil)
	var last ev
	for e := range events {
		last = e
	}
	if last.name != "done" || last.data.Status != StatusCancelled {
		t.Fatalf("final SSE event = %q %+v, want done/cancelled", last.name, last.data)
	}
}

// TestWaitingClientDisconnectCancelsRun: when the only synchronous waiter
// goes away the daemon stops the simulation (abandoned work is cancelled).
func TestWaitingClientDisconnectCancelsRun(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	body, _ := json.Marshal(longSpec)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs?wait=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel() // client disconnects
	<-errCh

	for s.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned run kept simulating")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.Metrics().RunsCancelled.Load() != 1 {
		t.Fatalf("cancelled metric = %d, want 1", s.Metrics().RunsCancelled.Load())
	}
}

// TestMetricsEndpoint scrapes /metrics after a hit/miss/cancel sequence and
// checks the counters the acceptance criteria name.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	postRun(t, ts, smallSpec, "?wait=1")
	postRun(t, ts, smallSpec, "?wait=1") // memory hit
	_, v := postRun(t, ts, longSpec, "")
	waitStatus(t, ts, v.ID, StatusRunning)
	http.Post(ts.URL+"/v1/runs/"+v.ID+"/cancel", "", nil)
	waitTerminal(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spbd_cache_hits_total{tier="memory"} 1`,
		`spbd_cache_hits_total{tier="disk"} 0`,
		"spbd_cache_misses_total 2",
		"spbd_runs_cancelled_total 1",
		"spbd_runs_completed_total 1",
		"spbd_queue_depth 0",
		"spbd_inflight_runs 0",
		`spbd_http_request_duration_seconds_count{endpoint="POST /v1/runs"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
	return JobView{}
}

// TestDrainRejectsAndFinishes: during drain new submissions get 503 and
// queued work still completes and persists.
func TestDrainRejectsAndFinishes(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Workers: 1, CacheDir: dir})
	_, v := postRun(t, ts, smallSpec, "")

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Submissions during/after drain are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		req := smallSpec
		req.Seed = 99
		resp, _ := postRun(t, ts, req, "")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started rejecting submissions")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := waitTerminal(t, ts, v.ID); got.Status != StatusDone {
		t.Fatalf("queued job ended %s across drain, want done", got.Status)
	}
	// The drained job's result made it to the disk tier.
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := smallSpec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Get(Key(spec)); err != nil || !ok {
		t.Fatalf("drained job's result not on disk: ok %v, %v", ok, err)
	}
	// Liveness stays 200 while draining (the process is up); readiness
	// reports unready.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness while draining = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz?ready=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readiness while draining = %d, want 503", resp.StatusCode)
	}
}

// strictBodies are run bodies the spec decoder refuses although a lenient
// one would run them: a misspelt knob would run its default, a retired one
// (the modelled branch predictor) the model without it, and a second value
// would be dropped unread. The last names the retired per-cycle reference
// loop, which a lenient decoder would run fast-forwarded: the same bytes, but
// not what the body asked for.
var strictBodies = []string{
	`{"workload":"bwaves","sb":14,"polcy":"spb"}`,
	`{"workload":"bwaves","sb":14,"branch_predictor":true}`,
	`{"workload":"bwaves"} {}`,
	`{"workload":"bwaves","sb":14,"disable_fast_forward":true}`,
}

// noMachineBodies are run bodies that parse but describe no machine: with no
// store buffer, an unknown core, and a sampling window longer than its period.
// They are refused with the error their run would fail with.
var noMachineBodies = []string{
	`{"workload":"bwaves","insts":1000}`,
	`{"workload":"bwaves","sb":14,"core":"P4","insts":1000}`,
	`{"workload":"bwaves","sb":14,"insts":1000,"sample_interval_insts":100,"sample_detailed_insts":500}`,
}

// TestBadSpecRejected covers the 400 paths: of a run, and of a batch, which
// names the index of its bad spec.
func TestBadSpecRejected(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	for _, body := range append(append([]string{
		`{"policy":"spb"}`,                       // missing workload
		`{"workload":"bwaves","policy":"bogus"}`, // unknown policy
		`{"workload":"bwaves","prefetcher":"?"}`, // unknown prefetcher
		`not json`,
		// Core counts no machine has: these used to panic a worker (and,
		// journaled, every restart after it) instead of being refused.
		`{"workload":"canneal","sb":14,"cores":65,"insts":1000}`,
		`{"workload":"canneal","sb":14,"cores":-1,"insts":1000}`,
	}, noMachineBodies...), strictBodies...) {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
		if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
			t.Fatalf("daemon stopped serving after POST %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz after POST %s = %d, want 200", body, resp.StatusCode)
		}
	}
	ok := `{"workload":"bwaves","sb":14,"insts":1000}`
	batches := []struct{ body, want string }{
		{`{"specs":[` + ok + `,{"workload":"bwaves","sb":14,"polcy":"spb"}]}`, "index 1"},
		{`{"specs":[` + ok + `,{"workload":"bwaves","sb":14,"branch_predictor":true}]}`, "index 1"},
		{`{"specs":[` + ok + `,{"workload":"bwaves","sb":14,"disable_fast_forward":true}]}`, "index 1"},
		{`{"specs":[` + ok + `],"spec":[]}`, "unknown field"},
		{`{"specs":[` + ok + `]} {}`, "after the JSON value"},
	}
	for _, body := range noMachineBodies {
		batches = append(batches, struct{ body, want string }{`{"specs":[` + ok + `,` + body + `]}`, "index 1"})
	}
	for _, c := range batches {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.want) {
			t.Errorf("POST /v1/batch %s = %d %s, want 400 naming %q", c.body, resp.StatusCode, msg, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestOversizedRunBodyRejected: a run body past maxRunBody (here a 2 MiB
// workload name) is refused with 413 before it becomes a job, so nothing is
// queued and nothing reaches the journal.
func TestOversizedRunBodyRejected(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal")
	s, ts := testServer(t, Config{Workers: 1, JournalPath: journalPath})
	body, _ := json.Marshal(RunRequest{Workload: strings.Repeat("w", 2<<20), Insts: 1000})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of a %d-byte body = %d, want 413", len(body), resp.StatusCode)
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Errorf("the refused body created %d job(s)", jobs)
	}
	if got := jobFiles(t, journalPath); len(got) != 0 {
		t.Errorf("the refused body reached the journal: %v", got)
	}
}

// TestPrefetcherZooEndToEnd: the new prefetcher kinds are selectable over
// the wire and return byte-identical stats to an in-process run, while a
// kind the spec grammar does not know is rejected at spec-parse time with a
// 400 — it must never reach a worker and panic in prefetch.New.
func TestPrefetcherZooEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	for _, pf := range []string{"bop", "dspatch", "hybrid"} {
		req := smallSpec
		req.Prefetcher = pf
		resp, v := postRun(t, ts, req, "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST = %d", pf, resp.StatusCode)
		}
		if v.Status != StatusDone {
			t.Fatalf("%s: status = %s (%s)", pf, v.Status, v.Error)
		}
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(v.Stats) != string(want) {
			t.Fatalf("%s: remote stats differ from in-process stats:\n  got  %s\n  want %s", pf, v.Stats, want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"bwaves","prefetcher":"markov"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown prefetcher kind = %d, want 400", resp.StatusCode)
	}
}

// TestUnknownWorkloadFailsJob: a spec that parses but names a missing
// workload must fail the job, not wedge it.
func TestUnknownWorkloadFailsJob(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	req := RunRequest{Workload: "no-such-workload", SB: 14, Insts: 1000}
	resp, v := postRun(t, ts, req, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	if v.Status != StatusFailed || v.Error == "" {
		t.Fatalf("status = %s (%q), want failed with error", v.Status, v.Error)
	}
	if s.Metrics().RunsFailed.Load() != 1 {
		t.Fatalf("failed metric = %d, want 1", s.Metrics().RunsFailed.Load())
	}
}

func ExampleKey() {
	k := Key(sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14})
	fmt.Println(len(k))
	// Output: 64
}
