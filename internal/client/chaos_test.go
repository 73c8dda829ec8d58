package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"spb/internal/faults"
	"spb/internal/server"
	"spb/internal/sim"
)

// closeIdleConnections drops keep-alive connections parked on the shared
// default transport so goroutine-leak accounting sees only real leaks.
func closeIdleConnections() {
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// chaosDaemon starts one spbd with an explicit config (fault injector,
// cache dir, ...) behind an httptest listener.
func chaosDaemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.SSEInterval == 0 {
		cfg.SSEInterval = 5 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := server.New(cfg)
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

// diskEntryPath mirrors the disk store's sharded layout (dir/ab/<key>.json)
// so chaos tests can corrupt entries from the outside.
func diskEntryPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".json")
}

// corruptEntryFile flips one bit of an alphanumeric byte inside the entry's
// stats payload. The stats field is a raw JSON blob the store round-trips
// verbatim, so token-level damage there is always visible to the content
// checksum — a flip elsewhere can land on a struct field name whose value
// is the zero value, which parses back to an identical entry and
// legitimately passes verification.
func corruptEntryFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(data, []byte(`"stats"`))
	if start < 0 {
		t.Fatalf("no stats payload to corrupt in %s", path)
	}
	for i := start + len(`"stats"`); i < len(data); i++ {
		b := data[i]
		if b >= 'a' && b <= 'z' || b >= '0' && b <= '9' {
			data[i] ^= 0x02
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no alphanumeric byte to corrupt in %s", path)
}

// TestBatchResumeAfterTruncation: the server kills the /v1/batch NDJSON
// stream partway through, the pool resumes the cut chunk on the same
// backend, and every spec is still simulated exactly once — the resumed
// request coalesces onto the retained jobs and cache instead of
// re-simulating.
func TestBatchResumeAfterTruncation(t *testing.T) {
	inj := faults.MustParse("batch.stream:cut:1:after=3:limit=1")
	s, ts := chaosDaemon(t, server.Config{Faults: inj})
	pool, err := NewPool([]string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	specs := make([]sim.RunSpec, n)
	for i := range specs {
		specs[i] = poolSpec(uint64(i + 1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := pool.GetAllCtx(ctx, specs)
	if err != nil {
		t.Fatalf("GetAllCtx across a truncated stream: %v", err)
	}
	if got := inj.Fires("batch.stream"); got != 1 {
		t.Fatalf("stream cut fired %d times, want 1 (the fault never happened?)", got)
	}
	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := local.StatsJSON()
		got, _ := results[i].StatsJSON()
		if string(got) != string(want) {
			t.Fatalf("spec %d: resumed result differs from local run", i)
		}
	}
	if got := s.Runner().Runs(); got != n {
		t.Fatalf("Runs() = %d, want %d (resume must coalesce, not re-simulate)", got, n)
	}
}

// TestChaosSweepByteIdentical is the acceptance storm: a pool over three
// live backends — each with its own seeded mix of submit errors, worker
// latency, stream cuts, and disk I/O faults — plus one address nobody
// listens on. One backend's disk cache is pre-seeded with a valid entry
// (must be served, not re-simulated) and another's with a bit-flipped entry
// (must be quarantined and recomputed). The sweep must return stats
// byte-identical to in-process simulation, simulate every unique point
// exactly once (minus the valid disk hit), and leak no goroutines.
func TestChaosSweepByteIdentical(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	specsFaults := []string{
		"seed=11;run:delay:0.3:2ms;batch.stream:cut:0.15:limit=2",
		"seed=12;store.write:error:0.4:limit=3;batch.stream:cut:1:after=4:limit=1",
		"seed=13;submit:error:0.4:limit=2;store.read:error:0.3:limit=2",
	}
	servers := make([]*server.Server, 3)
	bases := make([]string, 0, 4)
	for i := range servers {
		s, ts := chaosDaemon(t, server.Config{
			CacheDir: dirs[i],
			Faults:   faults.MustParse(specsFaults[i]),
		})
		servers[i] = s
		bases = append(bases, ts.URL)
	}
	bases = append(bases, "http://127.0.0.1:1") // nobody home

	p, err := newPool(bases, func(p *Pool) {
		p.maxInflight = 4
		p.hedgeMin = 60 * time.Second // no hedging: keep exactly-once accounting strict
		p.breakerThreshold = 50       // stream cuts must not bury a live backend
		p.breakerCooldown = 25 * time.Millisecond
		p.logf = t.Logf
		p.retry.baseDelay = time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}

	owner := func(spec sim.RunSpec) int {
		return rank(server.Key(spec.Normalized()), p.backends)[0]
	}
	var specs []sim.RunSpec
	for seed := uint64(1); seed <= 18; seed++ {
		specs = append(specs, poolSpec(seed))
	}
	// The HRW layout depends on the ephemeral ports httptest picked, so
	// extend the sweep until the backends we pre-seed below each own at
	// least one point.
	for backend, seed := 0, uint64(18); backend <= 1; backend++ {
		for !func() bool {
			for _, spec := range specs {
				if owner(spec) == backend {
					return true
				}
			}
			return false
		}() {
			seed++
			if seed > 500 {
				t.Fatalf("no seed up to %d shards to backend %d", seed, backend)
			}
			specs = append(specs, poolSpec(seed))
		}
	}
	unique := len(specs)
	for seed := uint64(1); seed <= 6; seed++ { // duplicates: dedup must hold under faults
		specs = append(specs, poolSpec(seed))
	}

	// Pre-seed disk tiers: a valid entry on one live backend and a corrupted
	// one on another, each for a spec that rendezvous-shards to that backend.
	ownedBy := func(backend int) sim.RunSpec {
		for _, spec := range specs[:unique] {
			if owner(spec) == backend {
				return spec
			}
		}
		t.Fatalf("no sweep spec shards to backend %d", backend)
		return sim.RunSpec{}
	}
	seedEntry := func(dir string, spec sim.RunSpec) string {
		st, err := server.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		key := server.Key(spec.Normalized())
		if err := st.Put(key, res); err != nil {
			t.Fatal(err)
		}
		return diskEntryPath(dir, key)
	}
	validSpec := ownedBy(0)
	seedEntry(dirs[0], validSpec)
	corruptSpec := ownedBy(1)
	corruptPath := seedEntry(dirs[1], corruptSpec)
	corruptEntryFile(t, corruptPath)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := p.GetAllCtx(ctx, specs)
	if err != nil {
		t.Fatalf("sweep failed under the fault storm: %v", err)
	}

	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := results[i].StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("spec %d (%s seed %d): swept stats differ from in-process:\n  %s\n  %s",
				i, spec.Workload, spec.Seed, got, want)
		}
	}

	// Exactly once: every unique point simulated on exactly one backend,
	// except the valid pre-seeded entry (a disk hit). The corrupted entry
	// was quarantined and *recomputed*, so it still counts one run.
	var runs uint64
	for i, s := range servers {
		t.Logf("backend %d: %d runs, %d corrupt entries", i, s.Runner().Runs(), s.Metrics().StoreCorrupt.Load())
		runs += s.Runner().Runs()
	}
	if runs != uint64(unique-1) {
		t.Fatalf("backends ran %d simulations, want %d (duplicated or dropped work under faults)", runs, unique-1)
	}
	if got := servers[1].Metrics().StoreCorrupt.Load(); got != 1 {
		t.Fatalf("backend 1 counted %d corrupt store entries, want 1", got)
	}
	if _, err := os.Stat(corruptPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry was not quarantined: %v", err)
	}
	for i, s := range servers {
		if s.Degraded() {
			t.Fatalf("backend %d ended degraded; injected fault limits should have cleared", i)
		}
	}

	// No goroutine leaks: once the sweep returns, its dispatchers, hedge
	// monitor, and waiters must all be gone. Idle HTTP keep-alive
	// connections are torn down first so only real leaks remain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		closeIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosMidSweepBackendCrash kills a backend for real — connections
// severed, listener closed — while a sweep is in flight. The breaker trips
// hard, the dead backend's shard re-homes, and the sweep still returns
// correct results (exactly-once cannot hold across a crash: work the dead
// backend finished but never delivered is re-run elsewhere).
func TestChaosMidSweepBackendCrash(t *testing.T) {
	sA, tsA := chaosDaemon(t, server.Config{})
	_, tsB := chaosDaemon(t, server.Config{})
	p, err := newPool([]string{tsA.URL, tsB.URL}, func(p *Pool) {
		p.maxInflight = 2
		p.hedgeMin = 60 * time.Second
		p.breakerCooldown = 25 * time.Millisecond
		p.logf = t.Logf
		p.retry.baseDelay = time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}

	specs := make([]sim.RunSpec, 12)
	for i := range specs {
		specs[i] = poolSpec(uint64(i + 1))
		specs[i].Insts = 200_000 // slow enough that the crash lands mid-sweep
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	type out struct {
		res []sim.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := p.GetAllCtx(ctx, specs)
		ch <- out{res, err}
	}()

	// Crash A once it has started simulating sweep work.
	for i := 0; sA.Runner().Runs() == 0; i++ {
		if i > 10_000 {
			t.Fatal("backend A never received work")
		}
		time.Sleep(time.Millisecond)
	}
	tsA.CloseClientConnections()
	tsA.Listener.Close()

	got := <-ch
	if got.err != nil {
		t.Fatalf("sweep failed instead of surviving the crash: %v", got.err)
	}
	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := local.StatsJSON()
		res, _ := got.res[i].StatsJSON()
		if string(res) != string(want) {
			t.Fatalf("spec %d: post-crash result differs from local run", i)
		}
	}
}
