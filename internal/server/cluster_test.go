package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spb/internal/cluster"
	"spb/internal/faults"
	"spb/internal/sim"
)

// attachNode wires a cluster node onto a test server: advertise at the
// httptest URL, fast protocol ticks, started and stopped with the test.
func attachNode(t *testing.T, s *Server, ts *httptest.Server, cfg cluster.Config) *cluster.Node {
	t.Helper()
	cfg.Advertise = ts.URL
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = 15 * time.Millisecond
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = 20 * time.Millisecond
	}
	cfg.Logf = t.Logf
	n, err := cluster.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCluster(n)
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

func waitCluster(t *testing.T, timeout time.Duration, what string, cond func() bool) {
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

func aliveMembers(n *cluster.Node) int {
	alive := 0
	for _, m := range n.Members() {
		if m.State == cluster.StateAlive {
			alive++
		}
	}
	return alive
}

// TestPeerReadThroughByteIdentical: a result simulated and persisted on
// node A is served to a submission at node B from A's disk tier — stats
// byte-identical, B's runner never executes, and the job reports the "peer"
// cache tier.
func TestPeerReadThroughByteIdentical(t *testing.T) {
	sA, tsA := testServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	nA := attachNode(t, sA, tsA, cluster.Config{ID: "a", Epoch: 1})
	sB, tsB := testServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	nB := attachNode(t, sB, tsB, cluster.Config{ID: "b", Epoch: 2, Seeds: []string{tsA.URL}})

	waitCluster(t, 5*time.Second, "gossip convergence", func() bool {
		return aliveMembers(nA) == 2 && aliveMembers(nB) == 2
	})

	resp, vA := postRun(t, tsA, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK || vA.Status != StatusDone {
		t.Fatalf("POST to A = %d, status %s", resp.StatusCode, vA.Status)
	}
	// The peer protocol serves the disk tier; make sure A's persist landed.
	spec, err := smallSpec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	key := Key(spec.Normalized())
	waitCluster(t, 5*time.Second, "A's disk tier to hold the result", func() bool {
		_, ok := sA.ReadLocal(key)
		return ok
	})

	resp, vB := postRun(t, tsB, smallSpec, "?wait=1")
	if resp.StatusCode != http.StatusOK || vB.Status != StatusDone {
		t.Fatalf("POST to B = %d, status %s", resp.StatusCode, vB.Status)
	}
	if vB.Cached != "peer" {
		t.Errorf("B's job cached tier = %q, want peer", vB.Cached)
	}
	if !bytes.Equal(vA.Stats, vB.Stats) {
		t.Errorf("peer-served stats differ from the original:\nA: %s\nB: %s", vA.Stats, vB.Stats)
	}
	if runs := sB.Runner().Runs(); runs != 0 {
		t.Errorf("B simulated %d times; the peer read-through should have avoided all of them", runs)
	}
	if sB.Metrics().PeerHits.Load() == 0 {
		t.Error("B's PeerHits counter did not advance")
	}
	if sA.Metrics().PeerServed.Load() == 0 {
		t.Error("A's PeerServed counter did not advance")
	}
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

func jobStatus(ts *httptest.Server, id string) (Status, bool) {
	r, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		return "", false
	}
	defer r.Body.Close()
	var jv JobView
	if err := json.NewDecoder(r.Body).Decode(&jv); err != nil {
		return "", false
	}
	return jv.Status, true
}

// TestStealRunsExactlyOnce: with the victim's only worker pinned, its
// queued jobs are stolen by an idle peer and every point is simulated
// exactly once across the two runners.
func TestStealRunsExactlyOnce(t *testing.T) {
	victim, tsV := testServer(t, Config{Workers: 1, QueueDepth: 64})
	nV := attachNode(t, victim, tsV, cluster.Config{ID: "victim", Epoch: 1, DisableSteal: true})
	// StealThreshold 1: if a steal takes only part of the backlog (free
	// capacity is sampled racily), the remainder must still be stealable —
	// the victim's only worker stays pinned for the whole test.
	thief, tsT := testServer(t, Config{Workers: 4, QueueDepth: 64, CacheDir: t.TempDir()})
	nT := attachNode(t, thief, tsT, cluster.Config{ID: "thief", Epoch: 2, Seeds: []string{tsV.URL}, StealThreshold: 1})

	waitCluster(t, 5*time.Second, "gossip convergence", func() bool {
		return aliveMembers(nV) == 2 && aliveMembers(nT) == 2
	})
	blockerID := blockWorker(t, tsV)
	defer cancelRun(t, tsV, blockerID)

	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		req := smallSpec
		req.Seed = uint64(i + 1) // distinct points: no cache help
		resp, v := postRun(t, tsV, req, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued POST %d = %d", i, resp.StatusCode)
		}
		ids[i] = v.ID
	}

	for i, id := range ids {
		id := id
		waitCluster(t, 30*time.Second, fmt.Sprintf("queued job %d to finish", i), func() bool {
			st, ok := jobStatus(tsV, id)
			return ok && st == StatusDone
		})
	}

	thiefRuns := thief.Runner().Runs()
	victimRuns := victim.Runner().Runs()
	if thiefRuns == 0 {
		t.Error("the thief never executed a stolen job")
	}
	// Exactly once across the fleet: the 4 points plus the victim's blocker.
	if total := thiefRuns + victimRuns; total != n+1 {
		t.Errorf("total runs = %d (thief %d, victim %d), want %d: some point ran twice or not at all",
			total, thiefRuns, victimRuns, n+1)
	}
	if victim.Metrics().StealsOut.Load() == 0 {
		t.Error("victim's StealsOut counter did not advance")
	}
	if got := thief.Metrics().StealsIn.Load(); got != thiefRuns {
		t.Errorf("thief's StealsIn = %d, want one per stolen job it ran (%d)", got, thiefRuns)
	}
	// A stolen run goes through the same run routine as a local one: the
	// node that simulates it times it, writes it back and records it.
	waitStoreWrites(t, thief, thiefRuns)
	if runs, writes := thief.Metrics().RunDuration.Count(), thief.Metrics().StoreWrite.Count(); runs != thiefRuns || writes != thiefRuns {
		t.Errorf("thief ran %d stolen jobs but observed %d run durations and %d store writes", thiefRuns, runs, writes)
	}
}

// TestStealCutReclaims: the steal.cut fault severs the first steal response
// after ownership transferred. The victim's reclaim janitor must take the
// jobs back and the points must still complete — exactly once each.
func TestStealCutReclaims(t *testing.T) {
	inj, err := faults.Parse("steal.cut:cut:1:limit=1")
	if err != nil {
		t.Fatal(err)
	}
	victim, tsV := testServer(t, Config{Workers: 1, QueueDepth: 64, Faults: inj})
	nV := attachNode(t, victim, tsV, cluster.Config{
		ID: "victim", Epoch: 1, DisableSteal: true,
		Faults: inj, StealTimeout: 250 * time.Millisecond,
	})
	thief, tsT := testServer(t, Config{Workers: 4, QueueDepth: 64})
	nT := attachNode(t, thief, tsT, cluster.Config{ID: "thief", Epoch: 2, Seeds: []string{tsV.URL}, StealThreshold: 1})

	waitCluster(t, 5*time.Second, "gossip convergence", func() bool {
		return aliveMembers(nV) == 2 && aliveMembers(nT) == 2
	})
	blockerID := blockWorker(t, tsV)
	defer cancelRun(t, tsV, blockerID)

	const n = 2
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		req := smallSpec
		req.Seed = uint64(100 + i)
		resp, v := postRun(t, tsV, req, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued POST %d = %d", i, resp.StatusCode)
		}
		ids[i] = v.ID
	}

	for i, id := range ids {
		id := id
		waitCluster(t, 30*time.Second, fmt.Sprintf("job %d to survive the severed steal", i), func() bool {
			st, ok := jobStatus(tsV, id)
			return ok && st == StatusDone
		})
	}
	if victim.Metrics().StealsReclaimed.Load() == 0 {
		t.Error("no handoffs were reclaimed; the cut steal should have forced the reclaim path")
	}
	if total := thief.Runner().Runs() + victim.Runner().Runs(); total != n+1 {
		t.Errorf("total runs = %d, want %d: the reclaim must not double-simulate", total, n+1)
	}
}

// TestStealHandoffTokens: the id a thief completes a stolen job under is a
// fresh random token, never the guessable client-facing job id — so a
// network caller cannot forge steal/complete for a job it did not steal.
func TestStealHandoffTokens(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 8})
	blockerID := blockWorker(t, ts)
	defer cancelRun(t, ts, blockerID)

	resp, v := postRun(t, ts, smallSpec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued POST = %d", resp.StatusCode)
	}
	jobs := s.StealJobs(4)
	if len(jobs) != 1 {
		t.Fatalf("StealJobs took %d jobs, want 1", len(jobs))
	}
	tok := jobs[0].ID
	if tok == v.ID {
		t.Error("handoff token is the client-facing job id; it must be unguessable")
	}
	if len(tok) != 32 {
		t.Errorf("handoff token %q is %d chars, want 32 hex chars", tok, len(tok))
	}
	if s.CompleteStolen(v.ID, sim.Result{}, "forged") {
		t.Error("a completion forged with the public job id was accepted")
	}
	if !s.CompleteStolen(tok, sim.Result{}, "thief failed") {
		t.Error("the genuine handoff token was rejected")
	}
	waitStatus(t, ts, v.ID, StatusFailed)
}

// TestDrainReclaimsSilentThief: a handoff whose thief goes silent while
// this node drains must be reclaimed and finished locally by the drain
// loop (the cluster node — and its janitor — is already stopped, mirroring
// main's shutdown order), not spun on until the deadline and cancelled.
func TestDrainReclaimsSilentThief(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 8})
	n := attachNode(t, s, ts, cluster.Config{
		ID: "victim", Epoch: 1, DisableSteal: true, DisablePeerRead: true,
		StealTimeout: 200 * time.Millisecond,
	})
	blockerID := blockWorker(t, ts)

	resp, v := postRun(t, ts, smallSpec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued POST = %d", resp.StatusCode)
	}
	// The "thief": takes the handoff and is never heard from again.
	if jobs := s.StealJobs(4); len(jobs) != 1 {
		t.Fatalf("StealJobs took %d jobs, want 1", len(jobs))
	}
	// main.go's shutdown order: the node (and its reclaim janitor) stops
	// before Drain runs.
	n.Stop()
	cancelRun(t, ts, blockerID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v, want a clean drain via local reclaim", err)
	}
	if st, ok := jobStatus(ts, v.ID); !ok || st != StatusDone {
		t.Errorf("stolen job after drain = %s, want done (reclaimed and run locally)", st)
	}
	if s.Metrics().StealsReclaimed.Load() == 0 {
		t.Error("StealsReclaimed did not advance during drain")
	}
}
