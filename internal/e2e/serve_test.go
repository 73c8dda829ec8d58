//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spb/internal/client"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/server"
	"spb/internal/sim"
)

// TestServe is the service smoke: one daemon with a disk cache, checked
// from the outside. The subtests share the daemon and run in order — the
// cache and counter assertions of one build on the requests of the last.
func TestServe(t *testing.T) {
	d := startDaemon(t, "spbd", "-cache-dir", filepath.Join(t.TempDir(), "cache"))
	cl := d.Client(client.Options{TraceID: "smoke-trace-1"})
	small := spec("bwaves", core.PolicySPB, 14, 20000)
	smallFlags := []string{"-workload", "bwaves", "-policy", "spb", "-sb", "14", "-insts", "20000"}
	var first server.JobView

	t.Run("1 a cold run returns the bytes of spbsim -json", func(t *testing.T) {
		if h, err := cl.Healthz(ctx); err != nil || h["status"] != "ok" {
			t.Fatalf("healthz = %v, %v", h, err)
		}
		var err error
		if first, err = cl.Run(ctx, small); err != nil {
			t.Fatal(err)
		}
		if first.Cached != "" {
			t.Errorf("cold run reported cached=%q", first.Cached)
		}
		if want := spbsimJSON(t, smallFlags...); !bytes.Equal(first.Stats, want) {
			t.Errorf("service stats differ from spbsim -json:\n  got  %s\n  want %s", first.Stats, want)
		}
	})

	t.Run("2 an identical repeat is served from cache without re-running", func(t *testing.T) {
		v, err := cl.Run(ctx, small)
		if err != nil {
			t.Fatal(err)
		}
		if v.Cached != "memory" || !bytes.Equal(v.Stats, first.Stats) {
			t.Errorf("repeat: cached=%q, same stats %t", v.Cached, bytes.Equal(v.Stats, first.Stats))
		}
		if hits, misses := metric(t, d, `spbd_cache_hits_total{tier="memory"}`), metric(t, d, "spbd_cache_misses_total"); hits != 1 || misses != 1 {
			t.Errorf("metrics: %v memory hits, %v misses; want 1 and 1", hits, misses)
		}
	})

	t.Run("sampled spec round-trips with sample.* stats, full cost accounting and spbsim's bytes", func(t *testing.T) {
		sampled := spec("bwaves", core.PolicySPB, 14, 2_000_000)
		sampled.Sampling = sim.SamplingConfig{IntervalInsts: 250000, DetailedInsts: 8000, WarmInsts: 12000, HistoryInsts: 100000}
		v, err := cl.Run(ctx, sampled)
		if err != nil {
			t.Fatal(err)
		}
		if v.Cached != "" {
			t.Errorf("first sampled run reported cached=%q", v.Cached)
		}
		var stats map[string]float64
		if err := json.Unmarshal(v.Stats, &stats); err != nil {
			t.Fatal(err)
		}
		if stats["sample.intervals"] != 8 {
			t.Errorf("sample.intervals = %v, want 8", stats["sample.intervals"])
		}
		// Every paper-relevant sampled rate ships a mean and a 95% half-width.
		for _, k := range []string{"ipc", "cpi", "sbStallPerInst", "dramPerInst"} {
			for _, suffix := range []string{"MeanPPM", "CI95PPM"} {
				if _, ok := stats["sample."+k+suffix]; !ok {
					t.Errorf("sampled stats miss sample.%s%s", k, suffix)
				}
			}
		}
		// Cost accounting covers the whole horizon, in the stats and on the job view.
		if sum := stats["sample.detailedInsts"] + stats["sample.fastForwardInsts"]; sum != 2_000_000 {
			t.Errorf("sampled stats account %v instructions, want the full 2000000", sum)
		}
		if sum := v.Committed + v.FFInsts; sum != 2_000_000 {
			t.Errorf("job view committed+ff_insts = %d, want 2000000", sum)
		}
		want := spbsimJSON(t, "-workload", "bwaves", "-policy", "spb", "-sb", "14", "-insts", "2000000",
			"-sample-interval", "250000", "-sample-detailed", "8000", "-sample-warm", "12000", "-sample-history", "100000")
		if !bytes.Equal(v.Stats, want) {
			t.Error("sampled service stats differ from spbsim -json")
		}
		// The sampling knobs are part of the cache identity.
		other := sampled
		other.Sampling.HistoryInsts = 50000
		if v, err := cl.Run(ctx, other); err != nil || v.Cached != "" {
			t.Errorf("a different history bound: cached=%q, err %v; want a fresh run", v.Cached, err)
		}
		if v, err := cl.Run(ctx, sampled); err != nil || v.Cached != "memory" {
			t.Errorf("the identical sampled spec: cached=%q, err %v; want memory", v.Cached, err)
		}
	})

	t.Run("3 a cancelled request stops simulating and /metrics reports it", func(t *testing.T) {
		v, err := cl.Submit(ctx, blocker)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "the long run to make progress", func() bool {
			v, err := cl.Get(ctx, v.ID)
			return err == nil && v.Status == server.StatusRunning && v.Committed > 0
		})
		if _, err := cl.Cancel(ctx, v.ID); err != nil {
			t.Fatal(err)
		}
		at := waitStatus(t, cl, v.ID, server.StatusCancelled, 10*time.Second)
		time.Sleep(300 * time.Millisecond)
		if later, err := cl.Get(ctx, v.ID); err != nil || later.Committed != at.Committed {
			t.Errorf("simulation kept running after cancel: committed %d -> %d (%v)", at.Committed, later.Committed, err)
		}
		if n := metric(t, d, "spbd_runs_cancelled_total"); n != 1 {
			t.Errorf("spbd_runs_cancelled_total = %v, want 1", n)
		}
	})

	t.Run("4 a batch streams one terminal line per spec, dedups, answers from cache", func(t *testing.T) {
		// Index 0 is cached by the subtests above; 1 and 2 are one new point twice.
		dup := spec("mcf", core.PolicyAtCommit, 28, 20000)
		terminal := map[int][]server.BatchItem{}
		specs := []sim.RunSpec{small, dup, dup}
		err := cl.Batch(ctx, specs, func(it server.BatchItem) error {
			if it.Status.Terminal() {
				terminal[it.Index] = append(terminal[it.Index], it)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if len(terminal[i]) != 1 || terminal[i][0].Status != server.StatusDone {
				t.Fatalf("index %d: terminal lines %+v, want one done line", i, terminal[i])
			}
			if _, err := sim.ParseStats(specs[i], terminal[i][0].Stats); err != nil {
				t.Errorf("index %d: the done line's stats hold no result: %v", i, err)
			}
		}
		if it := terminal[0][0]; it.Cached != "memory" || !bytes.Equal(it.Stats, first.Stats) {
			t.Errorf("the cached spec: cached=%q, stats of the per-run API %t", it.Cached, bytes.Equal(it.Stats, first.Stats))
		}
		if a, b := terminal[1][0], terminal[2][0]; a.ID == "" || a.ID != b.ID || !bytes.Equal(a.Stats, b.Stats) {
			t.Errorf("in-request duplicate not shared: ids %q and %q", a.ID, b.ID)
		}
		if reqs, specs := metric(t, d, "spbd_batch_requests_total"), metric(t, d, "spbd_batch_specs_total"); reqs != 1 || specs != 3 {
			t.Errorf("batch metrics: %v requests, %v specs; want 1 and 3", reqs, specs)
		}
	})

	t.Run("5 healthz and metrics answer, with the default tenant's series", func(t *testing.T) {
		if rv, err := cl.Ready(ctx); err != nil || !rv.Ready {
			t.Errorf("readiness = %+v, %v", rv, err)
		}
		text, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Rendered unconditionally (the implicit default tenant), so dashboards
		// are written once for keyless and keyed daemons.
		for _, want := range []string{
			"\n" + `spbd_tenant_submitted_total{tenant="default"} `, "\n" + `spbd_tenant_completed_total{tenant="default"} `,
			"\n" + `spbd_topdown_cycles_total{class="all"}`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics miss %q", strings.TrimSpace(want))
			}
		}
	})

	t.Run("6 the job's trace is retrievable, the client's trace ID on it, phase histograms exposed", func(t *testing.T) {
		if first.TraceID != "smoke-trace-1" {
			t.Errorf("job view trace_id = %q, want the client's", first.TraceID)
		}
		// The store write lands after the reply; its span is the last to arrive.
		var spans map[string]bool
		waitFor(t, 10*time.Second, "the store-write span", func() bool {
			tv, err := cl.JobTrace(ctx, first.ID)
			if err != nil || tv.TraceID != "smoke-trace-1" || !tv.Done || tv.TotalNS <= 0 {
				t.Fatalf("trace = %+v, %v", tv, err)
			}
			spans = map[string]bool{}
			for _, sp := range tv.Spans {
				spans[sp.Name] = true
			}
			return spans["store-write"]
		})
		for _, name := range []string{"submit", "queue-wait", "run", "run.sim"} {
			if !spans[name] {
				t.Errorf("trace misses span %q (has %v)", name, spans)
			}
		}
		text, _ := cl.Metrics(ctx)
		for _, h := range []string{"spbd_queue_wait_seconds", "spbd_run_duration_seconds", "spbd_store_write_seconds", "spbd_batch_stream_seconds"} {
			if !strings.Contains(text, h+"_count") || !strings.Contains(text, h+"_bucket") {
				t.Errorf("metrics miss the %s histogram", h)
			}
		}
	})

	t.Run("every prefetcher kind returns spbsim's bytes; an unknown kind is a 400", func(t *testing.T) {
		// bop, dspatch and hybrid carry private state (RR rings, dual bitmaps,
		// arbiter attribution) through the service.
		cycles := map[string]float64{}
		for _, pf := range []string{"bop", "dspatch", "hybrid"} {
			s := small
			var err error
			if s.Prefetcher, err = config.ParsePrefetcher(pf); err != nil {
				t.Fatal(err)
			}
			v, err := cl.Run(ctx, s)
			if err != nil {
				t.Fatalf("%s: %v", pf, err)
			}
			if want := spbsimJSON(t, append(smallFlags, "-prefetcher", pf)...); !bytes.Equal(v.Stats, want) {
				t.Errorf("%s: service stats differ from spbsim -json", pf)
			}
			var stats map[string]float64
			json.Unmarshal(v.Stats, &stats)
			cycles[pf] = stats["cpu.cycles"]
		}
		if cycles["bop"] == 0 {
			t.Error("bop run reports no cpu.cycles")
		}
		if cycles["bop"] == cycles["dspatch"] {
			t.Logf("note: bop and dspatch tie on cycles (%v)", cycles["bop"])
		}
		code, _ := rawStatus(t, "POST", d.Base+"/v1/runs", `{"workload":"bwaves","policy":"spb","sb":14,"insts":20000,"prefetcher":"markov"}`)
		if code != 400 {
			t.Errorf("unknown prefetcher answered %d, want 400", code)
		}
	})

	t.Run("7 SIGTERM drains and exits cleanly", func(t *testing.T) { d.Term(t) })
}
