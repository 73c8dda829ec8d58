//go:build e2e

package e2e

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"spb/internal/client"
	"spb/internal/core"
)

// TestCluster is the static-fleet gate: three independent daemons named in
// one -server list, sharded by the client pool's rendezvous hash, sweep to
// the in-process bytes — also under a fault storm — and a keyed daemon turns
// a keyless caller away.
func TestCluster(t *testing.T) {
	dir := t.TempDir()
	local := sweepCSV(t)
	nodes := fleet(t, dir, "n")
	chaos := fleet(t, dir, "c", "-faults", "seed=7;batch.stream:cut:0.1;store.read:error:0.2")

	t.Run("1 a sweep across three daemons equals in-process", func(t *testing.T) {
		if got := sweepCSV(t, "-server", servers(nodes)); !bytes.Equal(local, got) {
			t.Error("fleet sweep CSV differs from in-process")
		}
	})

	t.Run("2 so does one across three daemons that cut streams and fail disk reads", func(t *testing.T) {
		if got := sweepCSV(t, "-server", servers(chaos)); !bytes.Equal(local, got) {
			t.Error("faulted fleet sweep CSV differs from in-process")
		}
		failed := 0.0
		for _, c := range chaos {
			failed += metric(t, c, "spbd_disk_store_errors_total")
		}
		if failed == 0 {
			t.Error("no disk read failed: the fault storm never ran")
		}
	})

	t.Run("3 a keyed daemon answers a keyless submit with 401 and runs its tenant's", func(t *testing.T) {
		keyed := startDaemon(t, "k1", "-cache-dir", filepath.Join(dir, "cache-k1"), "-tenants", "alice:ka;bob:kb")
		defer keyed.Term(t)
		point := spec("mcf", core.PolicySPB, 28, 20000)
		if _, err := keyed.Client(client.Options{}).Submit(ctx, point); statusOf(err) != 401 {
			t.Errorf("keyless submit: %v, want a 401", err)
		}
		if _, err := keyed.Client(client.Options{APIKey: "wrong"}).Submit(ctx, point); statusOf(err) != 401 {
			t.Errorf("wrong-key submit: %v, want a 401", err)
		}
		v, err := keyed.Client(client.Options{APIKey: "kb"}).Run(ctx, point)
		if err != nil || v.Tenant != "bob" {
			t.Fatalf("keyed run: tenant %q, %v; want bob's run", v.Tenant, err)
		}
		if c := metric(t, keyed, `spbd_tenant_completed_total{tenant="bob"}`); c != 1 {
			t.Errorf(`spbd_tenant_completed_total{tenant="bob"} = %v, want 1`, c)
		}
	})

	t.Run("4 every daemon drains cleanly on SIGTERM", func(t *testing.T) {
		for _, n := range append(nodes, chaos...) {
			n.Term(t)
		}
	})
}

// servers is the -server list naming every daemon of a fleet.
func servers(fleet []*daemon) string {
	var bases []string
	for _, d := range fleet {
		bases = append(bases, d.Base)
	}
	return strings.Join(bases, ",")
}
