package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spb/internal/core"
	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// appendRecords writes sealed journal records straight to a file — test
// stand-in for a previous daemon incarnation.
func appendRecords(t *testing.T, path string, recs ...journalRecord) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range recs {
		rec.Sum = rec.seal()
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

func acceptedRec(id string, req RunRequest) journalRecord {
	return journalRecord{Kind: journalAccepted, ID: id, Tenant: "default", Spec: &req}
}

func TestJournalReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jl, live, err := openJournal(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(live))
	}
	reqA := RunRequest{Workload: "mcf", Policy: "spb", SB: 14, Insts: 10000}
	reqB := RunRequest{Workload: "x264", Policy: "at-commit", SB: 56, Insts: 20000}
	jl.accepted("r000001-aaaa", "keyA", "acme", "trace-1", reqA)
	jl.accepted("r000002-bbbb", "keyB", "default", "", reqB)
	jl.started("r000002-bbbb")
	jl.accepted("r000003-cccc", "keyC", "default", "", reqA)
	jl.started("r000003-cccc")
	jl.terminal("r000003-cccc", StatusDone)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, live, err := openJournal(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(live) != 2 {
		t.Fatalf("recovered %d jobs, want 2: %+v", len(live), live)
	}
	if live[0].ID != "r000001-aaaa" || live[0].Tenant != "acme" || live[0].TraceID != "trace-1" || live[0].Started {
		t.Errorf("job 0 mangled: %+v", live[0])
	}
	if live[0].Req != reqA {
		t.Errorf("job 0 spec mangled: %+v", live[0].Req)
	}
	if live[1].ID != "r000002-bbbb" || !live[1].Started {
		t.Errorf("job 1 mangled: %+v", live[1])
	}

	// Compaction dropped the finished job's history: only the two live
	// accepted records (plus job 2's started marker) remain on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Errorf("compacted journal has %d lines, want 3:\n%s", n, data)
	}
	if n := bytes.Count(data, []byte(`"kind":"accepted"`)); n != 2 {
		t.Errorf("compacted journal has %d accepted records, want 2:\n%s", n, data)
	}
}

func TestJournalTornTailAndGarbageTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	req := RunRequest{Workload: "mcf", Insts: 5000}
	appendRecords(t, path, acceptedRec("r000001-aaaa", req))
	// A torn write: the process died mid-append. Also some raw garbage and
	// a checksum-valid-looking line with a flipped byte.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"kind":"accepted","id":"r000002-bbbb","spec":{"worklo`)
	f.Close()

	jl, live, err := openJournal(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(live) != 1 || live[0].ID != "r000001-aaaa" {
		t.Fatalf("recovered %+v, want exactly the intact record", live)
	}
}

func TestJournalBitrotSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	req := RunRequest{Workload: "mcf", Insts: 5000}
	appendRecords(t, path, acceptedRec("r000001-aaaa", req), acceptedRec("r000002-bbbb", req))
	data, _ := os.ReadFile(path)
	// Flip one byte inside the first record's spec.
	idx := bytes.Index(data, []byte("mcf"))
	data[idx] ^= 0x01
	os.WriteFile(path, data, 0o644)

	jl, live, err := openJournal(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(live) != 1 || live[0].ID != "r000002-bbbb" {
		t.Fatalf("recovered %+v, want only the checksum-valid record", live)
	}
}

func TestJournalNeverResurrectsTerminal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	req := RunRequest{Workload: "mcf", Insts: 5000}
	// The terminal record lands BEFORE the accepted record — the real
	// ordering when a worker finishes a job while submit is still writing
	// its acceptance, and also what a duplicated accepted line after an
	// aborted compaction looks like. Terminal must win regardless.
	appendRecords(t, path,
		journalRecord{Kind: string(StatusDone), ID: "r000001-aaaa"},
		acceptedRec("r000001-aaaa", req),
		acceptedRec("r000002-bbbb", req),
		journalRecord{Kind: string(StatusCancelled), ID: "r000002-bbbb"},
		acceptedRec("r000002-bbbb", req),
	)
	jl, live, err := openJournal(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(live) != 0 {
		t.Fatalf("resurrected terminal jobs: %+v", live)
	}
}

// FuzzJournalReplay feeds arbitrary bytes through the replay path. Three
// invariants must hold for any input: no panic, no live job whose ID also
// has a valid terminal record, and idempotence — compacting and replaying
// again yields the same live set.
func FuzzJournalReplay(f *testing.F) {
	req := RunRequest{Workload: "mcf", Policy: "spb", SB: 14, Insts: 10000}
	seed := func(recs ...journalRecord) []byte {
		var buf bytes.Buffer
		for _, rec := range recs {
			rec.Sum = rec.seal()
			line, _ := json.Marshal(rec)
			buf.Write(line)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	f.Add(seed(acceptedRec("r000001-aaaa", req)))
	f.Add(seed(acceptedRec("r000001-aaaa", req), journalRecord{Kind: journalStarted, ID: "r000001-aaaa"}))
	f.Add(seed(acceptedRec("r000001-aaaa", req), journalRecord{Kind: string(StatusDone), ID: "r000001-aaaa"}))
	f.Add(seed(journalRecord{Kind: string(StatusFailed), ID: "r000001-aaaa"}, acceptedRec("r000001-aaaa", req)))
	f.Add([]byte("garbage\n{\"kind\":\"accep"))
	f.Add(append(seed(acceptedRec("r000001-aaaa", req)), []byte(`{"kind":"accepted","id":"r0000`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		live, recs := replayJournal(data)

		// Independently collect every valid terminal ID from the raw input.
		terminal := map[string]bool{}
		for _, line := range strings.Split(string(data), "\n") {
			var rec journalRecord
			if json.Unmarshal([]byte(line), &rec) != nil {
				continue
			}
			if rec.ID == "" || rec.Sum == "" || rec.Sum != rec.seal() {
				continue
			}
			if terminalKind(rec.Kind) {
				terminal[rec.ID] = true
			}
		}
		for _, rj := range live {
			if rj.ID == "" {
				t.Fatal("live job with empty ID")
			}
			if terminal[rj.ID] {
				t.Fatalf("job %s is live despite a valid terminal record", rj.ID)
			}
		}

		// Idempotence: the compacted form replays to the same live set.
		var buf bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		again, _ := replayJournal(buf.Bytes())
		if len(again) != len(live) {
			t.Fatalf("replay not idempotent: %d live, then %d", len(live), len(again))
		}
		for i := range live {
			if again[i] != live[i] {
				t.Fatalf("replay not idempotent at %d: %+v vs %+v", i, live[i], again[i])
			}
		}
	})
}

// waitJobDone polls a job until it reaches a terminal state.
func waitJobDone(t *testing.T, s *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := s.jobByID(id)
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerJournalRecovery is the tentpole's server-layer invariant: a
// daemon that dies with queued and running jobs re-admits them on restart
// under their original IDs, preserving tenant and trace ID, marks them
// recovered, runs them to completion with correct results, and leaves the
// journal empty of live records afterwards.
func TestServerJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.ndjson")
	tenants := []TenantConfig{{Name: "acme", Key: "k-acme"}}

	// Incarnation 1: every run sleeps forever (fault injection), so both
	// jobs are journaled accepted (one also started) and never finish. No
	// Drain — the "crash" is simply opening incarnation 2 on the same
	// journal; compaction renames the file out from under incarnation 1,
	// whose late writes land on the unlinked inode, exactly like a dead
	// process's would.
	inj, err := faults.Parse("run:delay:1:10m")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{
		Workers: 1, JournalPath: journalPath, DisableSync: true,
		Faults: inj, Tenants: tenants, Tracer: obs.NewTracer(16, nil), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	specA := sim.RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 8000}
	specB := sim.RunSpec{Workload: "x264", Policy: core.PolicyAtCommit, SQSize: 56, Insts: 8000}
	tn := s1.tenants["k-acme"]
	jA, err := s1.submit(specA, "trace-A", tn)
	if err != nil {
		t.Fatal(err)
	}
	jB, err := s1.submit(specB, "", tn)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick job A up (its "started" record proves the
	// mid-run case, not just the queued case).
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(journalPath)
		if bytes.Contains(data, []byte(`"kind":"started"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no started record appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Incarnation 2: same journal, clean runner.
	s2, err := New(Config{
		Workers: 2, JournalPath: journalPath, DisableSync: true,
		Tenants: tenants, Tracer: obs.NewTracer(16, nil), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if got := s2.metrics.RecoveryRequeued.Load(); got != 2 {
		t.Fatalf("RecoveryRequeued = %d, want 2", got)
	}
	for _, want := range []struct {
		id, traceID string
	}{{jA.id, "trace-A"}, {jB.id, ""}} {
		j := s2.jobByID(want.id)
		if j == nil {
			t.Fatalf("job %s not re-admitted", want.id)
		}
		v := j.view()
		if !v.Recovered {
			t.Errorf("job %s not marked recovered", want.id)
		}
		if v.Tenant != "acme" {
			t.Errorf("job %s recovered under tenant %q, want acme", want.id, v.Tenant)
		}
		if want.traceID != "" && v.TraceID != want.traceID {
			t.Errorf("job %s trace ID %q, want %q", want.id, v.TraceID, want.traceID)
		}
	}

	// Both recovered jobs run to completion with correct results.
	for _, tc := range []struct {
		id   string
		spec sim.RunSpec
	}{{jA.id, specA}, {jB.id, specB}} {
		if st := waitJobDone(t, s2, tc.id); st != StatusDone {
			t.Fatalf("recovered job %s ended %s", tc.id, st)
		}
		ref, err := sim.Run(tc.spec.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		refStats, _ := ref.StatsJSON()
		j := s2.jobByID(tc.id)
		j.mu.Lock()
		gotStats := j.stats
		j.mu.Unlock()
		if !bytes.Equal(refStats, gotStats) {
			t.Errorf("recovered job %s stats differ from a clean run", tc.id)
		}
	}

	// Fresh submissions must not collide with recovered IDs.
	jC, err := s2.submit(sim.RunSpec{Workload: "dedup", Policy: core.PolicySPB, SQSize: 14, Insts: 4000}, "", s2.tenants["k-acme"])
	if err != nil {
		t.Fatal(err)
	}
	if jC.id == jA.id || jC.id == jB.id {
		t.Fatalf("fresh job reused a recovered ID: %s", jC.id)
	}

	// After everything finished, a third replay finds no live jobs.
	waitJobDone(t, s2, jC.id)
	live, _ := replayJournal(mustRead(t, journalPath))
	if len(live) != 0 {
		t.Errorf("journal still has %d live records after all jobs finished", len(live))
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryFailsJobWhoseSpecNoLongerValidates: a journal written by a
// release that accepted a 65-core spec (it went on to panic the worker, and
// replay then crash-looped the daemon) must not stop this one from starting.
// The job comes back under its ID as failed, with the reason, next to a
// healthy job that is requeued and runs; a second restart finds nothing to
// replay for it.
func TestRecoveryFailsJobWhoseSpecNoLongerValidates(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.ndjson")
	bad := RunRequest{Workload: "canneal", SB: 14, Cores: 65, Insts: 1000}
	good := RunRequest{Workload: "mcf", Policy: "spb", SB: 14, Insts: 4000}
	appendRecords(t, journalPath,
		acceptedRec("r000001-deadbeef", bad),
		journalRecord{Kind: journalStarted, ID: "r000001-deadbeef"},
		acceptedRec("r000002-cafef00d", good))

	s, ts := testServer(t, Config{Workers: 1, JournalPath: journalPath, DisableSync: true})
	resp, err := http.Get(ts.URL + "/healthz?ready=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz?ready=1 over the poisoned journal = %d, want 200", resp.StatusCode)
	}
	if st := waitJobDone(t, s, "r000001-deadbeef"); st != StatusFailed {
		t.Fatalf("65-core job recovered as %s, want failed", st)
	}
	v := s.jobByID("r000001-deadbeef").view()
	if !v.Recovered || !strings.Contains(v.Error, "core count 65") {
		t.Fatalf("failed job view = %+v, want recovered with the validation error", v)
	}
	if st := waitJobDone(t, s, "r000002-cafef00d"); st != StatusDone {
		t.Fatalf("healthy job next to it recovered as %s, want done", st)
	}
	if got := s.Metrics().RecoveryDropped.Load(); got != 1 {
		t.Fatalf("RecoveryDropped = %d, want 1", got)
	}
	ts.Close()
	s.Close()

	jl, live, err := openJournal(journalPath, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(live) != 0 {
		t.Fatalf("second restart would replay %d job(s): %+v", len(live), live)
	}
}

// TestRecoveryCompletesFromDiskTier covers the lost-terminal-record crash:
// the previous daemon finished the job and persisted the result, but died
// before the journal's terminal record landed. Recovery must serve the
// stored result instead of re-simulating.
func TestRecoveryCompletesFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journalPath := filepath.Join(dir, "journal.ndjson")

	spec := sim.RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 8000}.Normalized()
	res, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenDiskStore(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(Key(spec), res); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, journalPath,
		acceptedRec("r000007-cafe", Request(spec)),
		journalRecord{Kind: journalStarted, ID: "r000007-cafe"})

	s, err := New(Config{Workers: 1, CacheDir: cacheDir, JournalPath: journalPath, DisableSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if got := s.metrics.RecoveryCompleted.Load(); got != 1 {
		t.Fatalf("RecoveryCompleted = %d, want 1", got)
	}
	j := s.jobByID("r000007-cafe")
	if j == nil {
		t.Fatal("recovered job not resolvable by its pre-crash ID")
	}
	v := j.view()
	if v.Status != StatusDone || !v.Recovered || v.Cached != "disk" {
		t.Fatalf("recovered job view: status %s, recovered %t, cached %q", v.Status, v.Recovered, v.Cached)
	}
	refStats, _ := res.StatsJSON()
	if !bytes.Equal(refStats, v.Stats) {
		t.Error("recovered stats differ from the persisted result")
	}
	// Simulating zero instructions is the point.
	if n := s.Runner().SimStats().InstsSimulated; n != 0 {
		t.Errorf("recovery simulated %d instructions, want 0", n)
	}
}

// TestOrphanTempSweep: temp files a crashed writer left behind are removed
// at startup and counted; real entries are untouched; the sweep and the
// journal's recovery counters surface in the metrics text.
func TestOrphanTempSweep(t *testing.T) {
	cacheDir := t.TempDir()
	spec := sim.RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 2000}.Normalized()
	res, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenDiskStore(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(spec)
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(cacheDir, key[:2])
	orphan := filepath.Join(shard, "."+key+".json.tmp12345")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, CacheDir: cacheDir, DisableSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.metrics.OrphanTempsSwept.Load(); got != 1 {
		t.Errorf("OrphanTempsSwept = %d, want 1", got)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp survived the sweep (stat err: %v)", err)
	}
	if _, ok, err := store.Get(key); err != nil || !ok {
		t.Errorf("real entry damaged by the sweep: ok=%t err=%v", ok, err)
	}
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	for _, series := range []string{"spbd_orphan_temps_swept_total 1", "spbd_recovery_requeued_total 0", "spbd_journal_errors_total 0"} {
		if !strings.Contains(buf.String(), series+"\n") {
			t.Errorf("metrics text missing %q", series)
		}
	}
}

// TestDrainWritesTerminalRecords: a clean drain leaves no live journal
// records — cancelled jobs were reported to their clients, so recovering
// them after a graceful shutdown would be wrong.
func TestDrainWritesTerminalRecords(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.ndjson")
	inj, err := faults.Parse("run:delay:1:10m")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JournalPath: journalPath, DisableSync: true, Faults: inj, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(sim.RunSpec{Workload: "mcf", Insts: 8000}, "", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_ = s.Drain(ctx) // deadline forces cancellation of the sleeping run
	live, _ := replayJournal(mustRead(t, journalPath))
	if len(live) != 0 {
		t.Errorf("journal has %d live records after drain; they would wrongly resurrect", len(live))
	}
}
