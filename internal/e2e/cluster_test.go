//go:build e2e

package e2e

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"spb/internal/client"
	"spb/internal/core"
	"spb/internal/server"
)

// TestCluster is the fleet gate: a real 3-node fleet (n1 is the 1-worker
// steal victim) sharing a cluster-plane secret, a second fleet under a fault
// storm on the three cluster fault sites, and a multi-tenant daemon.
func TestCluster(t *testing.T) {
	const secret = "check-fleet-secret"
	dir := t.TempDir()
	nodes := fleet(t, dir, "n", []int{1, 2, 2}, "-steal-timeout", "2s", "-cluster-secret", secret)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	point := spec("mcf", core.PolicySPB, 28, 20000)
	noKey := client.Options{}

	t.Run("1 three daemons gossip through one seed and converge on a full membership view", func(t *testing.T) {
		for _, n := range nodes {
			waitAlive(t, n, 3)
		}
	})

	t.Run("2 a result simulated on one node is served to another from the peer tier, byte-identical", func(t *testing.T) {
		origin, err := n2.Client(noKey).Run(ctx, point)
		if err != nil || origin.Cached != "" {
			t.Fatalf("run on n2: cached=%q, %v", origin.Cached, err)
		}
		waitFile(t, entryPath(filepath.Join(dir, "cache-n2"), origin.Key))
		peer, err := n3.Client(noKey).Run(ctx, point)
		if err != nil {
			t.Fatal(err)
		}
		if peer.Cached != "peer" || !bytes.Equal(peer.Stats, origin.Stats) {
			t.Errorf("n3 answered cached=%q, the origin's stats %t; want the peer tier's copy", peer.Cached, bytes.Equal(peer.Stats, origin.Stats))
		}
		if hits, served := metric(t, n3, "spbd_cluster_peer_hits_total"), metric(t, n2, "spbd_cluster_peer_served_total"); hits < 1 || served < 1 {
			t.Errorf("n3 peer_hits_total %v, n2 peer_served_total %v; both must advance", hits, served)
		}
	})

	t.Run("3 idle peers steal a skewed queue and the steal counters advance on both sides", func(t *testing.T) {
		cl := n1.Client(noKey)
		pin, err := cl.Submit(ctx, blocker)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, cl, pin.ID, server.StatusRunning, 10*time.Second)
		var ids []string
		for seed := uint64(11); seed <= 16; seed++ {
			s := spec("bwaves", core.PolicySPB, 14, 30000)
			s.Seed = seed
			v, err := cl.Submit(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			waitStatus(t, cl, id, server.StatusDone, 30*time.Second) // n1's only worker is pinned: a thief ran it
		}
		if _, err := cl.Cancel(ctx, pin.ID); err != nil {
			t.Fatal(err)
		}
		out := metric(t, n1, "spbd_cluster_steals_out_total")
		in := metric(t, n2, "spbd_cluster_steals_in_total") + metric(t, n3, "spbd_cluster_steals_in_total")
		if out < 1 || in < 1 {
			t.Errorf("victim handed off %v jobs, thieves ran %v; both must advance", out, in)
		}
	})

	t.Run("4 a killed node goes non-alive and rejoins with an epoch that supersedes its old one", func(t *testing.T) {
		epochOfN3 := func() uint64 {
			v, err := n1.Client(noKey).Members(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range v.Members {
				if m.ID == "n3" {
					return m.Epoch
				}
			}
			return 0
		}
		n3.Term(t)
		waitAlive(t, n1, 2)
		old := epochOfN3()
		n3.Restart(t)
		for _, n := range nodes {
			waitAlive(t, n, 3)
		}
		if fresh := epochOfN3(); fresh <= old {
			t.Errorf("rejoined n3 has epoch %d, which does not supersede %d", fresh, old)
		}
	})

	t.Run("5 a sweep through the fleet from one seed equals in-process, also under gossip.drop + steal.cut + peer.read", func(t *testing.T) {
		local := sweepCSV(t)
		if got := sweepCSV(t, "-server", n1.Base, "-cluster"); !bytes.Equal(local, got) {
			t.Error("cluster sweep CSV differs from in-process")
		}
		chaos := fleet(t, dir, "c", []int{1, 2, 2}, "-steal-timeout", "1s", "-cluster-secret", secret,
			"-faults", "seed=7;gossip.drop:error:0.2;steal.cut:cut:0.5:limit=2;peer.read:error:0.5:limit=4")
		waitAlive(t, chaos[0], 3)
		waitAlive(t, chaos[1], 3)
		if got := sweepCSV(t, "-server", chaos[0].Base, "-cluster"); !bytes.Equal(local, got) {
			t.Error("chaos-fleet sweep CSV differs from in-process")
		}
		for _, c := range chaos {
			c.Term(t)
		}
	})

	t.Run("6 tenants: keyless 401, over quota 429 with Retry-After, labelled series, a weighted-fair storm", func(t *testing.T) {
		t1 := startDaemon(t, "t1", "-cache-dir", filepath.Join(dir, "cache-t1"), "-workers", "2",
			"-tenants", "heavy:kh:weight=3;light:kl;capped:kq:quota=1")
		defer t1.Term(t)
		if _, err := t1.Client(noKey).Submit(ctx, point); statusOf(err) != 401 {
			t.Errorf("keyless submit: %v, want a 401", err)
		}
		// capped (quota=1): a long run fills the quota, the next distinct spec is refused.
		capped := t1.Client(client.Options{APIKey: "kq"})
		long, err := capped.Submit(ctx, blocker)
		if err != nil {
			t.Fatal(err)
		}
		_, err = capped.Submit(ctx, spec("mcf", core.PolicySPB, 14, 2_000_000_000))
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != 429 || se.RetryAfter == "" {
			t.Errorf("over-quota submit: %v, want a 429 carrying Retry-After", err)
		}
		if _, err := capped.Cancel(ctx, long.ID); err != nil {
			t.Fatal(err)
		}
		storm := tool(t, "spbload", "-addr", t1.Base, "-tenants", "heavy:kh:weight=3;light:kl", "-count", "24", "-insts", "20000")
		if !bytes.Contains(storm, []byte("fairness window")) || !bytes.Contains(storm, []byte("tenant heavy")) {
			t.Errorf("the storm printed no weighted-fair share report:\n%s", storm)
		}
		if w := metric(t, t1, `spbd_tenant_weight{tenant="heavy"}`); w != 3 {
			t.Errorf(`spbd_tenant_weight{tenant="heavy"} = %v, want 3`, w)
		}
		if r := metric(t, t1, `spbd_tenant_quota_rejected_total{tenant="capped"}`); r != 1 {
			t.Errorf(`spbd_tenant_quota_rejected_total{tenant="capped"} = %v, want 1`, r)
		}
		if c := metric(t, t1, `spbd_tenant_completed_total{tenant="light"}`); c < 1 {
			t.Errorf(`spbd_tenant_completed_total{tenant="light"} = %v, want the storm's completions`, c)
		}
	})

	t.Run("7 the cluster plane works through the shared secret and turns a caller without it away", func(t *testing.T) {
		// Subtests 1-5 ran gossip, stealing and peer reads through the secret.
		code, _ := rawStatus(t, "POST", n1.Base+"/v1/cluster/steal", `{"thief":"intruder","max":8}`)
		if code != 401 {
			t.Errorf("keyless steal answered %d, want 401", code)
		}
		code, _ = rawStatus(t, "GET", n1.Base+"/v1/peer/results/deadbeef", "", "X-Spb-Cluster-Key", "wrong")
		if code != 401 {
			t.Errorf("wrong-key peer read answered %d, want 401", code)
		}
	})

	t.Run("8 every daemon drains cleanly on SIGTERM (the chaos fleet and the tenant daemon did above)", func(t *testing.T) {
		for _, n := range nodes {
			n.Term(t)
		}
	})
}
