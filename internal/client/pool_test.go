package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spb/internal/core"
	"spb/internal/server"
	"spb/internal/sim"
)

func poolSpec(seed uint64) sim.RunSpec {
	return sim.RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 10_000, Seed: seed}
}

func TestHRWSameSpecSameBackend(t *testing.T) {
	bases := []string{"http://a:1", "http://b:1", "http://c:1"}
	p1, err := NewPool(bases)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPool(bases)
	if err != nil {
		t.Fatal(err)
	}
	// Two spellings of the same simulation point (defaulted vs explicit
	// fields) share a canonical key and therefore a backend.
	a := sim.RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 10_000}
	b := a
	b.Cores, b.Seed, b.WindowN = 1, 1, 48
	ka, kb := server.Key(a), server.Key(b)
	if ka != kb {
		t.Fatal("normalized spellings produced different keys")
	}
	for seed := uint64(1); seed <= 100; seed++ {
		k := server.Key(poolSpec(seed))
		r1, r2 := rank(k, p1.backends), rank(k, p2.backends)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("rank(%s) differs between identical pools", k[:12])
			}
		}
	}
}

func TestHRWRemovalOnlyRemapsRemovedShare(t *testing.T) {
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	p3, err := NewPool(all)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPool(all[:2])
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[int]int) // backend -> keys owned under p3
	moved := 0
	for seed := uint64(1); seed <= 300; seed++ {
		k := server.Key(poolSpec(seed))
		o3 := rank(k, p3.backends)[0]
		owned[o3]++
		o2 := rank(k, p2.backends)[0]
		if o3 != 2 { // c did not own it: the owner must not change
			if o2 != o3 {
				t.Fatalf("key %.12s moved from backend %d to %d when c was removed", k, o3, o2)
			}
		} else {
			moved++
		}
	}
	for b := 0; b < 3; b++ {
		if owned[b] == 0 {
			t.Fatalf("backend %d owns no keys out of 300 (rendezvous badly skewed)", b)
		}
	}
	if moved == 0 {
		t.Fatal("backend c owned nothing; removal property untested")
	}
}

// TestRendezvousPlacementPinned pins where the pool places points: the
// first-ranked backend of 1 000 keys over three fixed URLs (two of them
// spelled the way -server accepts but does not keep), as one SHA-256. Any
// change to the rendezvous score or to URL normalization moves every
// daemon's shard and leaves its caches cold, so it moves this hash.
func TestRendezvousPlacementPinned(t *testing.T) {
	const golden = "0b9c2538452a950268650a656ac3e2ac2d13474b4084499a13141492e9335425"
	p, err := NewPool([]string{"a.example:7077", "http://b.example:7077/", "http://c.example:7077"})
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]byte, 1000)
	for i := range owners {
		owners[i] = byte('0' + rank(server.Key(poolSpec(uint64(i+1))), p.backends)[0])
	}
	sum := sha256.Sum256(owners)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("placement of 1000 keys hashes to %s, want %s", got, golden)
	}
}

// TestPoolFlags: the one declaration of the sweep CLIs' -server flag builds
// no pool without -server and one backend per listed URL with it, and the
// pool's events reach the flag set's output under its name.
func TestPoolFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := PoolFlags(fs, "the sweep executes")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p, err := get(); p != nil || err != nil {
		t.Fatalf("no -server: pool %v, err %v; want neither", p, err)
	}
	var out bytes.Buffer
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&out)
	get = PoolFlags(fs, "the sweep executes")
	if err := fs.Parse([]string{"-server", "h1:7077,http://h2:7077/"}); err != nil {
		t.Fatal(err)
	}
	p, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Backends(); len(got) != 2 || got[0] != "http://h1:7077" || got[1] != "http://h2:7077" {
		t.Fatalf("backends %v, want the two normalized -server URLs", got)
	}
	if u := fs.Lookup("server").Usage; !strings.Contains(u, "; the sweep executes remotely") {
		t.Fatalf("-server help %q lost its subject", u)
	}
	p.logf("pool: backend %s is dead", "http://h1:7077")
	if got := out.String(); got != "test: pool: backend http://h1:7077 is dead\n" {
		t.Fatalf("flag set output %q, want the pool's event under the flag set's name", got)
	}
}

// poolDaemon spins up one spbd instance for pool tests.
func poolDaemon(t *testing.T, workers int) (*server.Server, string) {
	t.Helper()
	s, err := server.New(server.Config{Workers: workers, SSEInterval: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

func TestPoolSingleBackendMatchesLocal(t *testing.T) {
	s, url := poolDaemon(t, 2)
	p, err := newPool([]string{url}, func(p *Pool) { p.maxInflight = 4 })
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.RunSpec{poolSpec(1), poolSpec(2), poolSpec(3), poolSpec(1)} // one duplicate
	results, err := p.GetAllCtx(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].CPU != local.CPU || results[i].Mem != local.Mem {
			t.Fatalf("spec %d: pool result differs from local run", i)
		}
	}
	if got := s.Runner().Runs(); got != 3 {
		t.Fatalf("Runs() = %d, want 3 (duplicate spec must share one simulation)", got)
	}
}

// TestPoolResultsEqualLocalRuns: every field of a result the pool brings back
// is what sim.Run makes, for a warmed, a sampled and an 8-core point — when the
// daemon simulates them, and again when a restarted daemon, its memo empty,
// serves them from the disk tier (the result it recalls from disk is compared
// too).
func TestPoolResultsEqualLocalRuns(t *testing.T) {
	specs := []sim.RunSpec{
		{Workload: "omnetpp", Policy: core.PolicySPB, SQSize: 14, Insts: 10_000, WarmupInsts: 10_000},
		{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 40_000,
			Sampling: sim.SamplingConfig{IntervalInsts: 10_000, DetailedInsts: 1_000, WarmInsts: 1_000}},
		{Workload: "canneal", Policy: core.PolicyNone, SQSize: 14, Cores: 8, Insts: 3_000},
	}
	want := make([]sim.Result, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = sim.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for _, phase := range []string{"simulated", "from disk"} {
		s, ts := chaosDaemon(t, server.Config{CacheDir: dir})
		p, err := NewPool([]string{ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.GetAllCtx(context.Background(), specs)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for i := range specs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: point %d differs from sim.Run:\n  pool  %+v\n  local %+v", phase, i, got[i], want[i])
			}
		}
		if phase == "from disk" {
			if n := s.Runner().Runs(); n != 0 {
				t.Errorf("restarted daemon simulated %d points, want all from disk", n)
			}
			for i, spec := range specs {
				if res, ok := s.Runner().Lookup(spec); !ok || !reflect.DeepEqual(res, want[i]) {
					t.Errorf("point %d as recalled from disk (held %v) differs from sim.Run:\n  disk  %+v\n  local %+v", i, ok, res, want[i])
				}
			}
		}
		// Drain waits for the workers, so every disk write is done.
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		ts.Close()
	}
}

func TestPoolPropagatesSimulationError(t *testing.T) {
	_, url := poolDaemon(t, 1)
	p, err := NewPool([]string{url})
	if err != nil {
		t.Fatal(err)
	}
	bad := poolSpec(1)
	bad.Workload = "bogus"
	_, err = p.GetAllCtx(context.Background(), []sim.RunSpec{poolSpec(2), bad})
	if err == nil {
		t.Fatal("pool swallowed a simulation error")
	}
}

// TestPoolHedgesStalledBackend is the straggler acceptance test: backend A
// has a single worker pinned by an effectively-infinite job, so every point
// sharded to A sits queued forever. The hedge must re-dispatch those points
// to B and cancel A's queued jobs — each point simulated exactly once,
// none of them on A.
func TestPoolHedgesStalledBackend(t *testing.T) {
	sA, urlA := poolDaemon(t, 1)
	sB, urlB := poolDaemon(t, 2)
	p, err := newPool([]string{urlA, urlB}, func(p *Pool) {
		p.maxInflight = 8
		p.hedgeMin = 25 * time.Millisecond
		p.hedgeTick = 5 * time.Millisecond
		p.logf = t.Logf
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build a mix where both backends own at least two points, so the
	// hedge path and the normal path are both exercised regardless of how
	// the hash happens to spread any particular seed.
	var specs []sim.RunSpec
	ownedA, ownedB := 0, 0
	for seed := uint64(1); seed <= 64 && (ownedA < 2 || ownedB < 2); seed++ {
		spec := poolSpec(seed)
		if rank(server.Key(spec), p.backends)[0] == 0 {
			if ownedA >= 2 {
				continue
			}
			ownedA++
		} else {
			if ownedB >= 2 {
				continue
			}
			ownedB++
		}
		specs = append(specs, spec)
	}
	if ownedA < 2 || ownedB < 2 {
		t.Fatalf("could not build a mixed shard (A=%d B=%d)", ownedA, ownedB)
	}

	// Pin A's only worker.
	stall := poolSpec(999)
	stall.Insts = 2_000_000_000
	stallView, err := New(urlA).Submit(context.Background(), stall)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cctx, cc := context.WithTimeout(context.Background(), 5*time.Second)
		defer cc()
		_, _ = New(urlA).Cancel(cctx, stallView.ID)
	}()
	// Wait until the stall job is actually occupying the worker.
	for i := 0; sA.Inflight() == 0; i++ {
		if i > 1000 {
			t.Fatal("stall job never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := p.GetAllCtx(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].CPU != local.CPU {
			t.Fatalf("spec %d: hedged result differs from local run", i)
		}
	}
	// A ran only the stall job: its shard was hedged to B and its queued
	// jobs cancelled before a worker could pick them up.
	if got := sA.Runner().Runs(); got != 1 {
		t.Fatalf("stalled backend Runs() = %d, want 1 (sweep points simulated on the stalled backend)", got)
	}
	// Every sweep point simulated exactly once, all on B.
	if got := sB.Runner().Runs(); got != uint64(len(specs)) {
		t.Fatalf("healthy backend Runs() = %d, want %d (hedge duplicated or dropped points)", got, len(specs))
	}
}

func TestPoolReshardsAroundDeadBackend(t *testing.T) {
	sB, urlB := poolDaemon(t, 2)
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	p, err := newPool([]string{dead, urlB}, func(p *Pool) { p.maxInflight, p.logf = 4, t.Logf })
	if err != nil {
		t.Fatal(err)
	}
	// Six specs, and then as many more as it takes for the dead backend to own
	// one: ranks hash the live backend's port, which the OS picks, and one run
	// in 64 used to find all six ranked to the live one.
	var specs []sim.RunSpec
	deadOwned := 0
	for seed := uint64(1); seed <= 6 || deadOwned == 0 && seed <= 64; seed++ {
		specs = append(specs, poolSpec(seed))
		if rank(server.Key(specs[len(specs)-1]), p.backends)[0] == 0 {
			deadOwned++
		}
	}
	if deadOwned == 0 {
		t.Fatal("dead backend owns nothing; re-shard path untested")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := p.GetAllCtx(ctx, specs)
	if err != nil {
		t.Fatalf("pool failed instead of re-sharding: %v", err)
	}
	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].CPU != local.CPU {
			t.Fatalf("spec %d: re-sharded result differs from local run", i)
		}
	}
	if got := sB.Runner().Runs(); got != uint64(len(specs)) {
		t.Fatalf("surviving backend Runs() = %d, want %d", got, len(specs))
	}
}

func TestPoolAllBackendsDead(t *testing.T) {
	p, err := NewPool([]string{"http://127.0.0.1:1", "http://127.0.0.1:1/x"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = p.GetAllCtx(ctx, []sim.RunSpec{poolSpec(1)})
	if err == nil {
		t.Fatal("pool reported success with every backend dead")
	}
}

func TestPoolRejectsEmpty(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Fatal("NewPool(nil) succeeded")
	}
	if _, err := NewPool([]string{" ", ""}); err == nil {
		t.Fatal("NewPool(blank) succeeded")
	}
}

// TestPoolSweepAfterAbandonedTrial: a half-open trial that the sweep
// outlives is abandoned — neither a success nor a failure — so it neither
// holds the circuit against the pool's next sweep nor counts toward
// burying the backend. Backend A answers its first batch 500 (one trip:
// threshold 1), then parks the trial's batch stream (its point is hedged to
// B and the sweep ends) or the trial's readiness probe (the caller cancels
// the sweep). Sweep 2 sends A two fresh points; with maxTrips 2 a cut probe
// counted as a failure would bury A and move them to B.
func TestPoolSweepAfterAbandonedTrial(t *testing.T) {
	for name, parked := range map[string]string{"stream": "/v1/batch", "probe": "/healthz"} {
		t.Run(name, func(t *testing.T) {
			sA, _ := poolDaemon(t, 2)
			_, urlB := poolDaemon(t, 2)
			var batches, probes atomic.Int32
			parkedCh := make(chan struct{}, 1)
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := int32(0) // which request of its kind this is
				switch r.URL.Path {
				case "/v1/batch":
					if n = batches.Add(1); n == 1 {
						http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
						return
					}
				case "/healthz":
					n = probes.Add(1)
				}
				if r.URL.Path == parked && n == 2 {
					io.Copy(io.Discard, r.Body) // undrained, the server never notices the client leave
					select {
					case parkedCh <- struct{}{}:
					default:
					}
					<-r.Context().Done()
					return
				}
				sA.ServeHTTP(w, r)
			}))
			t.Cleanup(front.Close)

			p, err := newPool([]string{front.URL, urlB}, func(p *Pool) {
				p.maxInflight = 1
				p.hedgeMin, p.hedgeTick = 25*time.Millisecond, 5*time.Millisecond
				p.breakerThreshold, p.breakerCooldown, p.breakerMaxTrips = 1, 10*time.Millisecond, 2
				p.retry.MaxAttempts = -1
				p.logf = t.Logf
			})
			if err != nil {
				t.Fatal(err)
			}
			owned := func(b, n int, from uint64) (specs []sim.RunSpec, next uint64) {
				for next = from; len(specs) < n; next++ {
					if spec := poolSpec(next); rank(server.Key(spec), p.backends)[0] == b {
						specs = append(specs, spec)
					}
				}
				return specs, next
			}
			first, seed := owned(0, 2, 1)
			onB, seed := owned(1, 1, seed)
			second, _ := owned(0, 2, seed)

			ctx1, cancel1 := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel1()
			if parked == "/healthz" { // A's second point waits on A: only the caller ends this sweep
				go func() {
					<-parkedCh
					cancel1()
				}()
			}
			_, err = p.GetAllCtx(ctx1, append(first, onB...))
			t.Logf("sweep 1: %v", err)

			p.hedgeMin = time.Hour // sweep 2's points stay on A however slow the host
			ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel2()
			start := time.Now()
			results, err := p.GetAllCtx(ctx2, second)
			if err != nil {
				t.Fatalf("sweep 2 after %v: %v", time.Since(start), err)
			}
			for i, spec := range second {
				local, err := sim.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if results[i].CPU != local.CPU {
					t.Fatalf("sweep 2 spec %d differs from local run", i)
				}
			}
			if got := sA.Runner().Runs(); got != uint64(len(second)) {
				t.Fatalf("A ran %d simulations, want its %d points of sweep 2", got, len(second))
			}
		})
	}
}

// TestPoolRetriesExternallyCancelledPoint: a point cancelled on its daemon
// by someone other than the pool (here a proxy rewriting its terminal line)
// is placed again, up to poolTaskMaxRetries times — each retry hits the
// daemon's memo, so it is still simulated once — and then fails the sweep
// with an error that names it.
func TestPoolRetriesExternallyCancelledPoint(t *testing.T) {
	for _, k := range []int{1, poolTaskMaxRetries, poolTaskMaxRetries + 1} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, _ := poolDaemon(t, 1)
			var left atomic.Int32
			left.Store(int32(k))
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/batch" {
					s.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, r)
				for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
					var it server.BatchItem
					if json.Unmarshal(line, &it) == nil && it.Status == server.StatusDone && left.Add(-1) >= 0 {
						it.Status, it.Error, it.Stats = server.StatusCancelled, "cancelled by an operator", nil
						line, _ = json.Marshal(it)
						line = append(line, '\n')
					}
					w.Write(line)
				}
			}))
			t.Cleanup(front.Close)
			p, err := newPool([]string{front.URL}, func(p *Pool) { p.logf = t.Logf })
			if err != nil {
				t.Fatal(err)
			}
			spec := poolSpec(1)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			results, err := p.GetAllCtx(ctx, []sim.RunSpec{spec})
			if k > poolTaskMaxRetries {
				if err == nil || !strings.Contains(err.Error(), "cancelled externally") || !strings.Contains(err.Error(), spec.Workload) {
					t.Fatalf("after %d external cancellations: err %v, want one naming %s", k, err, spec.Workload)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			local, err := sim.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := local.StatsJSON()
			got, _ := results[0].StatsJSON()
			if string(got) != string(want) {
				t.Fatalf("result after %d external cancellations differs from local run", k)
			}
			if runs := s.Runner().Runs(); runs != 1 {
				t.Fatalf("daemon ran %d simulations, want 1 (re-dispatches hit its memo)", runs)
			}
		})
	}
}

// TestPoolRefusesStatsItCannotRebuild: a done line whose stats no run can
// have exported (a proxy bumps td.cycles) fails the sweep with an error that
// names the point, instead of handing the caller a result rebuilt from them.
func TestPoolRefusesStatsItCannotRebuild(t *testing.T) {
	s, _ := poolDaemon(t, 1)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			s.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, r)
		w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"td.cycles":`), []byte(`"td.cycles":1`), 1))
	}))
	t.Cleanup(front.Close)
	p, err := NewPool([]string{front.URL})
	if err != nil {
		t.Fatal(err)
	}
	spec := poolSpec(1)
	_, err = p.GetAllCtx(context.Background(), []sim.RunSpec{spec})
	if err == nil || !strings.Contains(err.Error(), spec.Workload) || !strings.Contains(err.Error(), "canonical export") {
		t.Fatalf("err %v, want the refused stats of %s", err, spec.Workload)
	}
}
