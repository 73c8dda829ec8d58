package client

import (
	"context"
	"net/http/httptest"
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
	p1, err := NewPool(bases, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPool(bases, PoolOptions{})
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
		r1, r2 := p1.rank(k), p2.rank(k)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("rank(%s) differs between identical pools", k[:12])
			}
		}
	}
}

func TestHRWRemovalOnlyRemapsRemovedShare(t *testing.T) {
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	p3, err := NewPool(all, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPool(all[:2], PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[int]int) // backend -> keys owned under p3
	moved := 0
	for seed := uint64(1); seed <= 300; seed++ {
		k := server.Key(poolSpec(seed))
		o3 := p3.rank(k)[0]
		owned[o3]++
		o2 := p2.rank(k)[0]
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
	p, err := NewPool([]string{url}, PoolOptions{MaxInflight: 4})
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

func TestPoolPropagatesSimulationError(t *testing.T) {
	_, url := poolDaemon(t, 1)
	p, err := NewPool([]string{url}, PoolOptions{})
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
	p, err := NewPool([]string{urlA, urlB}, PoolOptions{
		MaxInflight: 8,
		HedgeMin:    25 * time.Millisecond,
		HedgeTick:   5 * time.Millisecond,
		Logf:        t.Logf,
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
		if p.rank(server.Key(spec))[0] == 0 {
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
	p, err := NewPool([]string{dead, urlB}, PoolOptions{MaxInflight: 4, Logf: t.Logf})
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
		if p.rank(server.Key(specs[len(specs)-1]))[0] == 0 {
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
	p, err := NewPool([]string{"http://127.0.0.1:1", "http://127.0.0.1:1/x"}, PoolOptions{})
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
	if _, err := NewPool(nil, PoolOptions{}); err == nil {
		t.Fatal("NewPool(nil) succeeded")
	}
	if _, err := NewPool([]string{" ", ""}, PoolOptions{}); err == nil {
		t.Fatal("NewPool(blank) succeeded")
	}
}
