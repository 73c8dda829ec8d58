//go:build e2e

package e2e

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spb/internal/client"
	"spb/internal/core"
	"spb/internal/server"
)

// TestChaos is the resilience gate: the real binaries under seeded fault
// storms (the race-enabled fault-injection suites are check.sh's race pass).
func TestChaos(t *testing.T) {
	dir := t.TempDir()
	faulted := func(name, faults string) *daemon {
		return startDaemon(t, name, "-cache-dir", filepath.Join(dir, "cache-"+name), "-workers", "2", "-faults", faults)
	}
	d1 := faulted("d1", "seed=101;run:delay:0.2:2ms;batch.stream:cut:0.1:limit=4")
	d2 := faulted("d2", "seed=102;submit:error:0.3:limit=4;batch.stream:cut:1:after=5:limit=1")
	d3 := faulted("d3", "seed=103;store.read:error:0.3:limit=2;store.write:error:0.3:limit=2")
	d4 := faulted("d4", "")

	t.Run("1 a 3-backend sweep under submit errors, stream cuts, disk failures and run delays equals the in-process CSV", func(t *testing.T) {
		local := sweepCSV(t)
		remote := sweepCSV(t, "-server", strings.Join([]string{d1.Base, d2.Base, d3.Base}, ","))
		if !bytes.Equal(local, remote) {
			t.Errorf("faulted sweep CSV differs from in-process:\n%s\n---\n%s", remote, local)
		}
	})

	t.Run("2 a bit-rotted disk entry is quarantined on restart, counted, recomputed identically, its bytes kept", func(t *testing.T) {
		cl := d4.Client(client.Options{})
		point := spec("mcf", core.PolicySPB, 28, 20000)
		cold, err := cl.Run(ctx, point)
		if err != nil || cold.Cached != "" {
			t.Fatalf("cold run: cached=%q, %v", cold.Cached, err)
		}
		entry := entryPath(filepath.Join(dir, "cache-d4"), cold.Key)
		waitFile(t, entry)
		d4.Term(t)
		data, err := os.ReadFile(entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(entry, data[:len(data)/3], 0o644); err != nil { // bit-rot: a third of the entry survives
			t.Fatal(err)
		}
		d4.Restart(t)
		healed, err := cl.Run(ctx, point)
		if err != nil {
			t.Fatal(err)
		}
		if healed.Cached != "" {
			t.Errorf("the corrupt entry was served from cache (%q) instead of recomputed", healed.Cached)
		}
		if !bytes.Equal(healed.Stats, cold.Stats) {
			t.Error("recomputed stats differ from the original")
		}
		if n := metric(t, d4, "spbd_store_corrupt_total"); n != 1 {
			t.Errorf("spbd_store_corrupt_total = %v, want 1", n)
		}
		if kept, err := os.ReadFile(entry + ".corrupt"); err != nil || !bytes.Equal(kept, data[:len(data)/3]) {
			t.Errorf("the damaged bytes were not preserved in %s.corrupt (%v)", entry, err)
		}
		// Corruption is not an I/O failure: the tier must not degrade.
		if rv, err := cl.Ready(ctx); err != nil || !rv.Ready || rv.Degraded {
			t.Errorf("readiness after quarantine = %+v, %v", rv, err)
		}
	})

	t.Run("3 a sweep of new points against a daemon that cuts streams equals the in-process CSV", func(t *testing.T) {
		fresh := []string{"-insts", "20000"} // points subtest 1 has not cached
		local := sweepCSV(t, fresh...)
		if remote := sweepCSV(t, append(fresh, "-server", d1.Base)...); !bytes.Equal(local, remote) {
			t.Errorf("sweep CSV through a stream-cutting daemon differs from in-process:\n%s\n---\n%s", remote, local)
		}
	})

	t.Run("4 every faulted daemon still drains cleanly on SIGTERM", func(t *testing.T) {
		for _, d := range []*daemon{d1, d2, d3, d4} {
			d.Term(t)
		}
	})
}

// TestChaosKill is the crash-safety gate: kill -9 loses no accepted work and
// changes no bytes.
func TestChaosKill(t *testing.T) {
	dir := t.TempDir()
	state := []string{"-cache-dir", filepath.Join(dir, "k1", "cache"), "-journal", filepath.Join(dir, "k1", "journal.ndjson")}
	k1 := startDaemon(t, "k1", append(state, "-workers", "1")...)
	k2 := startDaemon(t, "k2", "-cache-dir", filepath.Join(dir, "k2", "cache"), "-journal", filepath.Join(dir, "k2", "journal.ndjson"), "-workers", "1")

	t.Run("1 kill -9 mid-batch: the journal re-admits under the original ids, stats equal spbsim -json, a sweep against the survivor equals in-process", func(t *testing.T) {
		cl := k1.Client(client.Options{})
		// With one worker most of these are still queued or running when the
		// SIGKILL lands.
		type submitted struct {
			workload string
			sb       int
			id       string
		}
		var jobs []submitted
		for _, wl := range []string{"mcf", "x264"} {
			for _, sb := range []int{14, 28, 42, 56} {
				v, err := cl.Submit(ctx, spec(wl, core.PolicySPB, sb, 1_000_000))
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, submitted{wl, sb, v.ID})
			}
		}
		time.Sleep(500 * time.Millisecond)
		k1.Kill9(t)
		// Same port, journal and cache. Recovery runs before the listener
		// comes up, so the first request already sees the jobs.
		k1.Restart(t, append(state, "-workers", "2")...)
		if n := metric(t, k1, "spbd_recovery_requeued_total"); n == 0 {
			t.Fatalf("no job was requeued from the journal:\n%s", k1.Log())
		}
		recovered := 0
		for _, j := range jobs {
			want := spbsimJSON(t, "-workload", j.workload, "-policy", "spb", "-sb", fmt.Sprint(j.sb), "-insts", "1000000")
			var got server.JobView
			if v, err := cl.Get(ctx, j.id); err == nil {
				// Still admitted: re-admitted under its original id.
				if v.Recovered {
					recovered++
				}
				got = waitStatus(t, cl, j.id, server.StatusDone, 120*time.Second)
			} else if statusOf(err) == 404 {
				// Finished before the SIGKILL: compaction dropped its record,
				// so the id is gone — but the fsynced result survives on disk
				// and answers a resubmission without re-running.
				if got, err = cl.Run(ctx, spec(j.workload, core.PolicySPB, j.sb, 1_000_000)); err != nil || got.Cached != "disk" {
					t.Fatalf("%s sb=%d, completed before the kill: cached=%q, %v; want the disk tier", j.workload, j.sb, got.Cached, err)
				}
			} else {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Stats, want) {
				t.Errorf("%s sb=%d (job %s): stats differ from spbsim -json after recovery", j.workload, j.sb, j.id)
			}
		}
		if recovered == 0 {
			t.Error("no job carries the recovered marker")
		}
		if local, remote := sweepCSV(t), sweepCSV(t, "-server", k1.Base); !bytes.Equal(local, remote) {
			t.Error("post-recovery sweep CSV differs from in-process")
		}
	})

	t.Run("2 kill -9 mid-run: the journal requeues the job, the restart runs it from zero and the stats equal spbsim -json", func(t *testing.T) {
		cl := k2.Client(client.Options{})
		big, err := cl.Submit(ctx, spec("mcf", core.PolicySPB, 28, 4_000_000))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 20*time.Second, "the run to commit instructions", func() bool {
			v, err := cl.Get(ctx, big.ID)
			return err == nil && v.Status == server.StatusRunning && v.Committed > 0
		})
		k2.Kill9(t)
		k2.Restart(t)
		if n := metric(t, k2, "spbd_recovery_requeued_total"); n != 1 {
			t.Errorf("spbd_recovery_requeued_total = %v, want 1", n)
		}
		got := waitStatus(t, cl, big.ID, server.StatusDone, 120*time.Second)
		if !got.Recovered {
			t.Error("the killed run is not marked recovered")
		}
		if want := spbsimJSON(t, "-workload", "mcf", "-policy", "spb", "-sb", "28", "-insts", "4000000"); !bytes.Equal(got.Stats, want) {
			t.Error("the rerun's stats differ from spbsim -json")
		}
	})

	t.Run("both survivors drain cleanly on SIGTERM", func(t *testing.T) {
		k1.Term(t)
		k2.Term(t)
	})
}
