package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"spb/internal/faults"
)

// getJSON fetches url and decodes the body, returning the status code too.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad body %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// readyView is the readiness body shape the Pool also consumes.
type readyView struct {
	Status        string   `json:"status"`
	Ready         bool     `json:"ready"`
	Draining      bool     `json:"draining"`
	Degraded      bool     `json:"degraded"`
	QueueHeadroom int      `json:"queue_headroom"`
	Reasons       []string `json:"reasons"`
}

func TestReadinessSplitFromLiveness(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, queueDepth: 4})

	// Fresh server: alive and ready.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("liveness = %d, want 200", code)
	}
	var rv readyView
	if code := getJSON(t, ts.URL+"/healthz?ready=1", &rv); code != http.StatusOK {
		t.Fatalf("readiness = %d, want 200", code)
	}
	if !rv.Ready || rv.Status != "ready" || rv.QueueHeadroom != 4 {
		t.Fatalf("readiness view = %+v, want ready with headroom 4", rv)
	}
}

func TestReadinessReportsQueueFull(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, queueDepth: 1})

	// One long job running, one queued: headroom exhausted.
	var ids []string
	for i := 0; i < 2; i++ {
		req := longSpec
		req.Insts += uint64(i) // distinct points, no coalescing
		resp, v := postRun(t, ts, req, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	defer func() {
		for _, id := range ids {
			http.Post(ts.URL+"/v1/runs/"+id+"/cancel", "application/json", nil)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var rv readyView
		code := getJSON(t, ts.URL+"/healthz?ready=1", &rv)
		if code == http.StatusServiceUnavailable {
			if rv.Ready || rv.QueueHeadroom != 0 || len(rv.Reasons) == 0 {
				t.Fatalf("unready view = %+v, want headroom 0 with a reason", rv)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readiness never reported queue full")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestInjectedSubmitFaultReturns503(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers: 1,
		Faults:  faults.MustParse("submit:error:1:limit=1"),
	})
	resp, _ := postRun(t, ts, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("faulted submit carries no Retry-After")
	}
	// Fault budget spent: the retry succeeds.
	resp, v := postRun(t, ts, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("retry after fault = %d/%s, want 200/done", resp.StatusCode, v.Status)
	}
}

// TestDiskDegradedModeEntersAndRecovers drives the store into degraded
// memory-only mode with an injected write failure, checks it is surfaced in
// readiness and metrics, and then watches a probe bring the tier back.
func TestDiskDegradedModeEntersAndRecovers(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers:            2,
		CacheDir:           t.TempDir(),
		Faults:             faults.MustParse("store.write:error:1:limit=1"),
		diskErrorThreshold: 1,
		diskRetryInterval:  5 * time.Millisecond,
	})

	// The first completed run's disk write fails (asynchronously, after the
	// response); one error meets the threshold of 1.
	postRun(t, ts, smallSpec, "?wait=1")
	deadline := time.Now().Add(5 * time.Second)
	for !s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered degraded mode")
		}
		time.Sleep(time.Millisecond)
	}

	// Degraded is visible but does not unready the daemon.
	var rv readyView
	if code := getJSON(t, ts.URL+"/healthz?ready=1", &rv); code != http.StatusOK {
		t.Fatalf("readiness while degraded = %d, want 200", code)
	}
	if !rv.Degraded || !rv.Ready {
		t.Fatalf("readiness view = %+v, want ready and degraded", rv)
	}
	if text := metricsText(t, ts); !strings.Contains(text, "spbd_store_degraded 1") {
		t.Fatal("metrics do not report spbd_store_degraded 1")
	}

	// Recovery: the fault budget is spent, so the next probe (one disk
	// operation per diskRetryInterval) succeeds and clears degraded mode.
	deadline = time.Now().Add(5 * time.Second)
	for i := 0; s.Degraded(); i++ {
		if time.Now().After(deadline) {
			t.Fatal("server never left degraded mode")
		}
		req := smallSpec
		req.Insts = 10_000 + uint64(i+1)*500 // fresh points keep hitting the tiers
		postRun(t, ts, req, "?wait=1")
		time.Sleep(5 * time.Millisecond)
	}
	if text := metricsText(t, ts); !strings.Contains(text, "spbd_store_degraded 0") {
		t.Fatal("metrics do not report spbd_store_degraded 0 after recovery")
	}
}

// TestServerQuarantinesCorruptEntry is the end-to-end corruption story:
// a bit-flipped cache file is quarantined and counted, the spec recomputes
// with the right answer, the healed entry serves the next restart, and the
// quarantine survives restarts without tripping anything again.
func TestServerQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, Config{Workers: 2, CacheDir: dir})
	resp, first := postRun(t, ts1, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK || first.Status != StatusDone {
		t.Fatalf("seed run = %d/%s", resp.StatusCode, first.Status)
	}
	waitStoreWrites(t, s1, 1)
	ts1.Close()

	// Flip a byte in the stored entry.
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := store.path(first.Key)
	flipEntryByte(t, path)

	// Fresh daemon over the damaged dir: the read quarantines, counts, and
	// recomputes — same stats, no disk hit, no error surfaced to the client.
	s2, ts2 := testServer(t, Config{Workers: 2, CacheDir: dir})
	resp, second := postRun(t, ts2, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK || second.Status != StatusDone {
		t.Fatalf("recompute run = %d/%s", resp.StatusCode, second.Status)
	}
	if second.Cached != "" {
		t.Fatalf("corrupt entry served from cache (%q)", second.Cached)
	}
	if string(second.Stats) != string(first.Stats) {
		t.Fatal("recomputed stats differ from the original")
	}
	if got := s2.Metrics().StoreCorrupt.Load(); got != 1 {
		t.Fatalf("StoreCorrupt = %d, want 1", got)
	}
	if text := metricsText(t, ts2); !strings.Contains(text, "spbd_store_corrupt_total 1") {
		t.Fatal("metrics do not report spbd_store_corrupt_total 1")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
	if s2.Degraded() {
		t.Fatal("corruption (not I/O failure) degraded the disk tier")
	}
	// Wait for the recompute's disk write, then restart: the healed entry
	// serves from disk and nothing is corrupt anymore.
	waitStoreWrites(t, s2, 1)
	ts2.Close()

	s3, ts3 := testServer(t, Config{Workers: 2, CacheDir: dir})
	resp, third := postRun(t, ts3, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK || third.Cached != "disk" {
		t.Fatalf("post-heal run = %d cached %q, want disk hit", resp.StatusCode, third.Cached)
	}
	if string(third.Stats) != string(first.Stats) {
		t.Fatal("healed stats differ from the original")
	}
	if got := s3.Metrics().StoreCorrupt.Load(); got != 0 {
		t.Fatalf("restart after quarantine counted %d corruptions, want 0", got)
	}
}
