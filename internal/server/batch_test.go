package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"spb/internal/sim"
)

// postBatch submits a batch and decodes every NDJSON line.
func postBatch(t *testing.T, url string, req BatchRequest) []BatchItem {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var items []BatchItem
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var it BatchItem
		if err := dec.Decode(&it); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		items = append(items, it)
	}
	return items
}

// terminalByIndex reduces a line stream to the terminal item per index.
func terminalByIndex(t *testing.T, items []BatchItem) map[int]BatchItem {
	t.Helper()
	out := make(map[int]BatchItem)
	for _, it := range items {
		if !it.Status.Terminal() {
			continue
		}
		if _, dup := out[it.Index]; dup {
			t.Fatalf("index %d produced two terminal lines", it.Index)
		}
		out[it.Index] = it
	}
	return out
}

func TestBatchStreamsResultsAndDedups(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	specs := []RunRequest{
		smallSpec,
		{Workload: "mcf", Policy: "spb", SB: 14, Insts: 10_000},
		smallSpec, // in-request duplicate of index 0
	}
	items := postBatch(t, ts.URL, BatchRequest{Specs: specs})
	done := terminalByIndex(t, items)
	if len(done) != len(specs) {
		t.Fatalf("got %d terminal items, want %d", len(done), len(specs))
	}
	for idx, it := range done {
		if it.Status != StatusDone {
			t.Fatalf("index %d: %s (%s)", idx, it.Status, it.Error)
		}
	}
	// The duplicate shares the job (one simulation) and returns identical
	// bytes.
	if done[0].Key != done[2].Key || done[0].ID != done[2].ID {
		t.Fatal("duplicate specs did not share a job")
	}
	if !bytes.Equal(done[0].Stats, done[2].Stats) {
		t.Fatal("duplicate specs returned differing stats")
	}
	if got := s.Runner().Runs(); got != 2 {
		t.Fatalf("Runs() = %d, want 2 (in-request dedup failed)", got)
	}
	// The stats rebuild the exact in-process result.
	spec, err := smallSpec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.ParseStats(spec, done[0].Stats)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res != local {
		t.Fatalf("batch result differs from in-process run:\n  %+v\n  %+v", res, local)
	}
	want, err := local.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(done[0].Stats, want) {
		t.Fatalf("batch stats differ from in-process stats:\n  %s\n  %s", done[0].Stats, want)
	}
}

func TestBatchAnswersFromCacheTiers(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	// Warm both tiers with a synchronous run.
	resp, _ := postRun(t, ts, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm POST = %d", resp.StatusCode)
	}
	items := postBatch(t, ts.URL, BatchRequest{Specs: []RunRequest{smallSpec}})
	done := terminalByIndex(t, items)
	if done[0].Cached != "memory" {
		t.Fatalf("cached = %q, want memory", done[0].Cached)
	}
	if got := s.Runner().Runs(); got != 1 {
		t.Fatalf("Runs() = %d, want 1 (batch re-simulated a cached point)", got)
	}
	// Cached answers carry no ack line: the single item is terminal.
	for _, it := range items {
		if !it.Status.Terminal() {
			t.Fatalf("cache-answered spec produced a %q line", it.Status)
		}
	}
}

func TestBatchReportsBadSpecsUpfront(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	body, _ := json.Marshal(BatchRequest{Specs: []RunRequest{{Workload: ""}}})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}
	body, _ = json.Marshal(BatchRequest{})
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
}

func TestBatchLargerThanQueueCompletes(t *testing.T) {
	// More unique specs than queueDepth: the in-flight bound must trickle
	// them through rather than rejecting with queue-full.
	s, ts := testServer(t, Config{Workers: 2, queueDepth: 2})
	var specs []RunRequest
	for i := 0; i < 8; i++ {
		sp := smallSpec
		sp.Seed = uint64(i + 1)
		specs = append(specs, sp)
	}
	items := postBatch(t, ts.URL, BatchRequest{Specs: specs})
	done := terminalByIndex(t, items)
	if len(done) != len(specs) {
		t.Fatalf("got %d terminal items, want %d", len(done), len(specs))
	}
	for idx, it := range done {
		if it.Status != StatusDone {
			t.Fatalf("index %d: %s (%s)", idx, it.Status, it.Error)
		}
	}
	if got := s.Runner().Runs(); got != uint64(len(specs)) {
		t.Fatalf("Runs() = %d, want %d", got, len(specs))
	}
}
