package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spb/internal/core"
	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// writeEntries writes sealed job files straight into a journal directory —
// test stand-in for a previous daemon incarnation.
func writeEntries(t *testing.T, dir string, entries ...journalEntry) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.ID+".json"), e.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func entryFor(id string, req RunRequest) journalEntry {
	return journalEntry{ID: id, Tenant: "default", Spec: req}
}

// jobFiles lists the journal's job files: the jobs a restart would re-admit.
func jobFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		files[i] = filepath.Base(f)
	}
	return files
}

func openTestJournal(t *testing.T, dir string) (*journal, []journalEntry) {
	t.Helper()
	jl, live, err := openJournal(dir, func(err error) { t.Errorf("journal I/O: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	return jl, live
}

// TestJournalReplayRoundTrip: what write puts in the directory comes back
// from the next open field for field, in sequence-number order (numeric, so
// r1000000 follows r999999), minus every job whose file was removed.
func TestJournalReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	jl, live := openTestJournal(t, dir)
	if len(live) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(live))
	}
	reqA := RunRequest{Workload: "mcf", Policy: "spb", SB: 14, Insts: 10000}
	reqB := RunRequest{Workload: "x264", Policy: "at-commit", SB: 56, Insts: 20000}
	a := journalEntry{ID: "r1000000-aaaa", Tenant: "acme", TraceID: "trace-1", Spec: reqA}
	b := journalEntry{ID: "r999999-bbbb", Tenant: "default", Spec: reqB}
	jl.write(a)
	jl.write(b)
	jl.write(entryFor("r000003-cccc", reqA))
	jl.remove("r000003-cccc")
	jl.remove("r000004-dddd") // a job that ended before its file landed

	_, live = openTestJournal(t, dir)
	a.Sum, b.Sum = a.seal(), b.seal()
	if !slices.Equal(live, []journalEntry{b, a}) {
		t.Fatalf("recovered %+v, want %+v then %+v", live, b, a)
	}
	if got := jobFiles(t, dir); len(got) != 2 {
		t.Errorf("journal holds %v, want the two live jobs' files alone", got)
	}
}

// TestJournalTornTailAndGarbageTolerated: a writer killed before its rename
// leaves a temp, which the restart sweeps without reading; a file of garbage
// is quarantined and its job born failed under its ID; the intact job next
// to both is requeued and runs.
func TestJournalTornTailAndGarbageTolerated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	req := RunRequest{Workload: "mcf", Policy: "spb", SB: 14, Insts: 5000}
	writeEntries(t, dir, entryFor("r000001-aaaa", req))
	torn := filepath.Join(dir, ".r000002-bbbb.json.tmp123")
	garbage := filepath.Join(dir, "r000003-cccc.json")
	os.WriteFile(torn, []byte(`{"id":"r000002-bbbb","spec":{"worklo`), 0o644)
	os.WriteFile(garbage, []byte(`{"id":"r000003-cccc","spec":{"worklo`), 0o644)

	s, err := New(Config{Workers: 1, JournalPath: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.metrics.OrphanTempsSwept.Load(); got != 1 {
		t.Errorf("OrphanTempsSwept = %d, want 1", got)
	}
	if s.jobByID("r000002-bbbb") != nil {
		t.Error("the torn temp's job was re-admitted")
	}
	if st := waitJobDone(t, s, "r000003-cccc"); st != StatusFailed {
		t.Errorf("garbage file's job ended %s, want failed", st)
	}
	if v := s.jobByID("r000003-cccc").view(); !strings.Contains(v.Error, "quarantined") {
		t.Errorf("garbage file's job error = %q, want the quarantine", v.Error)
	}
	if _, err := os.Stat(garbage + ".corrupt"); err != nil {
		t.Errorf("garbage file not kept aside: %v", err)
	}
	if st := waitJobDone(t, s, "r000001-aaaa"); st != StatusDone {
		t.Errorf("intact job ended %s, want done", st)
	}
}

// TestJournalBitrotSkipped: a file whose seal no longer holds, and a sealed
// file that names another job, fail their check alone — each is quarantined
// and comes back as its ID and the reason — while the intact file beside
// them decodes whole.
func TestJournalBitrotSkipped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	req := RunRequest{Workload: "mcf", Insts: 5000}
	writeEntries(t, dir, entryFor("r000001-aaaa", req), entryFor("r000002-bbbb", req))
	rotted := filepath.Join(dir, "r000001-aaaa.json")
	data := mustRead(t, rotted)
	data[bytes.Index(data, []byte("mcf"))] ^= 0x01
	os.WriteFile(rotted, data, 0o644)
	os.WriteFile(filepath.Join(dir, "r000003-cccc.json"), entryFor("r000009-ffff", req).encode(), 0o644)

	_, live := openTestJournal(t, dir)
	if len(live) != 3 {
		t.Fatalf("recovered %d entries, want 3: %+v", len(live), live)
	}
	for _, i := range []int{0, 2} {
		if live[i].err == nil || live[i].Spec != (RunRequest{}) {
			t.Errorf("entry %s passed its check: %+v", live[i].ID, live[i])
		}
	}
	if live[1].err != nil || live[1].ID != "r000002-bbbb" || live[1].Spec != req {
		t.Errorf("intact entry mangled: %+v", live[1])
	}
	want := []string{"r000001-aaaa.json.corrupt", "r000002-bbbb.json", "r000003-cccc.json.corrupt"}
	ents, _ := os.ReadDir(dir)
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Errorf("journal directory holds %v, want %v", got, want)
	}
}

// TestJournalNeverResurrectsTerminal: an ended job leaves no file, so the
// next incarnation re-admits nothing. That holds when a worker ends the job
// before submit's write (the write sees the ending and skips), and whatever
// the interleaving of the two when jobs that fail at once race their own
// admission.
func TestJournalNeverResurrectsTerminal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	s, err := New(Config{Workers: 2, queueDepth: 256, JournalPath: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := sim.RunSpec{Workload: "mcf", Insts: 1000}.Normalized()
	first := s.newJob("", Key(spec), spec, nil, "", time.Now())
	if _, err := s.admit(first); err != nil {
		t.Fatal(err)
	}
	s.end(first, StatusCancelled, sim.Result{}, "ended before its write")
	s.accepted(first)
	if got := jobFiles(t, dir); len(got) != 0 {
		t.Fatalf("a job that ended before its write left %v", got)
	}

	var jobs []*job
	for seed := uint64(1); seed <= 200; seed++ {
		j, err := s.submit(sim.RunSpec{Workload: "no-such-workload", Insts: 1000, Seed: seed}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.done
	}
	if got := jobFiles(t, dir); len(got) != 0 {
		t.Fatalf("ended jobs left %d journal files: %v", len(got), got)
	}
	if _, live := openTestJournal(t, dir); len(live) != 0 {
		t.Fatalf("resurrected ended jobs: %+v", live)
	}
}

// TestJournalPathMustBeADirectory: an older release's append log at the
// -journal path stops the daemon with an error naming the path; the file is
// neither read into the queue nor deleted.
func TestJournalPathMustBeADirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	old := []byte(`{"kind":"accepted","id":"r000001-aaaa","spec":{"workload":"mcf"},"sum":"x"}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workers: 1, JournalPath: path, Logf: t.Logf}); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("New over a journal file = %v, want an error naming %s", err, path)
	}
	if got := mustRead(t, path); !bytes.Equal(got, old) {
		t.Errorf("the old journal file changed to %q", got)
	}
}

// FuzzJournalEntry feeds arbitrary bytes in as one job file. For any input:
// decoding never panics; a file is accepted only when its seal holds and its
// ID is its name; and what admission writes for an entry built from the same
// bytes decodes to that entry.
func FuzzJournalEntry(f *testing.F) {
	const id = "r000001-aaaa"
	good := journalEntry{ID: id, Tenant: "acme", TraceID: "trace-1", Spec: smallSpec}.encode()
	f.Add(good)
	f.Add(entryFor("r000002-bbbb", smallSpec).encode()) // another job's file
	f.Add(good[:len(good)/2])                           // torn
	f.Add(bytes.Replace(good, []byte("bwaves"), []byte("bwavez"), 1))
	f.Add([]byte(`{"id":"r000001-aaaa","spec":{"workload":"mcf"}}`)) // never sealed
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeJournalEntry(id, data); err == nil {
			var raw journalEntry
			if json.Unmarshal(data, &raw) != nil || raw.Sum == "" || raw.Sum != raw.seal() || raw.ID != id || e != raw {
				t.Fatalf("accepted a file that is not a sealed entry for %s: %q", id, data)
			}
		}
		// Admission writes strings that came through JSON decoding or are
		// plain names: valid UTF-8.
		str := strings.ToValidUTF8(string(data), "")
		want := journalEntry{ID: id, Tenant: str, TraceID: str, Spec: RunRequest{Workload: str, Insts: uint64(len(data))}}
		got, err := decodeJournalEntry(id, want.encode())
		want.Sum = want.seal()
		if err != nil || got != want {
			t.Fatalf("admission's file decodes to %+v (%v), want %+v", got, err, want)
		}
	})
}

// BenchmarkJournalEntry is a job's whole journal cost with sync on, as the
// daemon runs it: admission's write of the job file and the ending's remove.
func BenchmarkJournalEntry(b *testing.B) {
	jl, _, err := openJournal(b.TempDir(), func(err error) { b.Fatal(err) })
	if err != nil {
		b.Fatal(err)
	}
	e := journalEntry{Tenant: "default", TraceID: "0123456789abcdef", Spec: smallSpec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ID = fmt.Sprintf("r%06d-aaaa", i+1)
		jl.write(e)
		jl.remove(e.ID)
	}
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
// journal without job files afterwards.
func TestServerJournalRecovery(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal")
	tenants := []TenantConfig{{Name: "acme", Key: "k-acme"}}

	// Incarnation 1: every run sleeps forever (fault injection), so both
	// jobs keep their files, one running and one queued. No Drain — the
	// "crash" is simply opening incarnation 2 on the same journal while
	// incarnation 1 holds both jobs, as a dead process would.
	inj, err := faults.Parse("run:delay:1:10m")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{
		Workers: 1, JournalPath: journalPath,
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
	// Wait for the worker to pick job A up: the mid-run case, not just the
	// queued one.
	deadline := time.Now().Add(10 * time.Second)
	for s1.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Incarnation 2: same journal, clean runner.
	s2, err := New(Config{
		Workers: 2, JournalPath: journalPath,
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

	// After everything finished, a third incarnation would find no jobs.
	waitJobDone(t, s2, jC.id)
	if got := jobFiles(t, journalPath); len(got) != 0 {
		t.Errorf("journal still holds %v after all jobs finished", got)
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
// recovery then crash-looped the daemon) must not stop this one from
// starting. The job comes back under its ID as failed, with the reason, next
// to a healthy job that is requeued and runs; a second restart finds nothing
// to re-admit for it. So does a job journaled, and sealed, by a release whose
// spec still had the modelled branch predictor: that knob is not part of the
// spec any more, so the seal no longer holds and the job is never run
// without the predictor it asked for. A job sealed with the retired
// disable_fast_forward knob is born failed the same way.
func TestRecoveryFailsJobWhoseSpecNoLongerValidates(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal")
	bad := RunRequest{Workload: "canneal", SB: 14, Cores: 65, Insts: 1000}
	good := RunRequest{Workload: "mcf", Policy: "spb", SB: 14, Insts: 4000}
	writeEntries(t, journalPath, entryFor("r000001-deadbeef", bad), entryFor("r000002-cafef00d", good))
	const predicted = `{"id":"r000003-0b5e55ed","tenant":"default","spec":{"workload":"bwaves","policy":"spb","sb":14,"insts":4000,"branch_predictor":true},"sum":"d905560467a9c0f989d45f9d698b680daf8cf5b3b0a36803dbff7d3a02f6fa69"}`
	const perCycle = `{"id":"r000004-0ff0ff00","tenant":"default","spec":{"workload":"bwaves","policy":"spb","sb":14,"insts":4000,"disable_fast_forward":true},"sum":"402f4e8a43eed7601257312274b4b08eb3bb36581bff0846e1d475625b4a1d91"}`
	for id, entry := range map[string]string{"r000003-0b5e55ed": predicted, "r000004-0ff0ff00": perCycle} {
		if err := os.WriteFile(filepath.Join(journalPath, id+".json"), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, ts := testServer(t, Config{Workers: 1, JournalPath: journalPath})
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
	if st := waitJobDone(t, s, "r000003-0b5e55ed"); st != StatusFailed {
		t.Fatalf("job journaled with the branch predictor on recovered as %s, want failed", st)
	}
	if v := s.jobByID("r000003-0b5e55ed").view(); !v.Recovered || !strings.Contains(v.Error, "checksum mismatch") {
		t.Fatalf("predictor job view = %+v, want recovered with a failed seal", v)
	}
	if st := waitJobDone(t, s, "r000004-0ff0ff00"); st != StatusFailed {
		t.Fatalf("job journaled with the fast forward off recovered as %s, want failed", st)
	}
	if v := s.jobByID("r000004-0ff0ff00").view(); !v.Recovered || !strings.Contains(v.Error, "checksum mismatch") {
		t.Fatalf("fast-forward-off job view = %+v, want recovered with a failed seal", v)
	}
	if got := s.Metrics().RecoveryDropped.Load(); got != 3 {
		t.Fatalf("RecoveryDropped = %d, want 3", got)
	}
	if got := s.Metrics().RecoveryRequeued.Load(); got != 1 {
		t.Fatalf("RecoveryRequeued = %d, want 1: only the healthy job runs", got)
	}
	ts.Close()
	s.Close()

	if _, live := openTestJournal(t, journalPath); len(live) != 0 {
		t.Fatalf("second restart would re-admit %d job(s): %+v", len(live), live)
	}
}

// TestRecoveryCompletesFromDiskTier covers the lost-removal crash: the
// previous daemon finished the job and persisted the result, but died
// before the job's file was removed. Recovery must serve the stored result
// instead of re-simulating, and remove the file.
func TestRecoveryCompletesFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journalPath := filepath.Join(dir, "journal")

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
	writeEntries(t, journalPath, entryFor("r000007-cafe", Request(spec)))

	s, err := New(Config{Workers: 1, CacheDir: cacheDir, JournalPath: journalPath, Logf: t.Logf})
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
	if got := jobFiles(t, journalPath); len(got) != 0 {
		t.Errorf("the completed job's file survived: %v", got)
	}
}

// TestOrphanTempSweep: temp files a crashed writer left behind, in the disk
// tier and in the journal, are removed at startup and counted; real entries
// and job files are untouched; the sweep and the journal's recovery counters
// surface in the metrics text.
func TestOrphanTempSweep(t *testing.T) {
	dir := t.TempDir()
	cacheDir, journalPath := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
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
	writeEntries(t, journalPath, entryFor("r000001-aaaa", Request(spec)))
	orphans := []string{
		filepath.Join(cacheDir, key[:2], "."+key+".json.tmp12345"),
		filepath.Join(journalPath, ".r000002-bbbb.json.tmp678"),
	}
	for _, orphan := range orphans {
		if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Config{Workers: 1, CacheDir: cacheDir, JournalPath: journalPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.metrics.OrphanTempsSwept.Load(); got != 2 {
		t.Errorf("OrphanTempsSwept = %d, want 2", got)
	}
	for _, orphan := range orphans {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphan temp %s survived the sweep (stat err: %v)", orphan, err)
		}
	}
	if _, ok, err := store.Get(key); err != nil || !ok {
		t.Errorf("real entry damaged by the sweep: ok=%t err=%v", ok, err)
	}
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	for _, series := range []string{"spbd_orphan_temps_swept_total 2", "spbd_recovery_completed_total 1", "spbd_recovery_requeued_total 0", "spbd_journal_errors_total 0"} {
		if !strings.Contains(buf.String(), series+"\n") {
			t.Errorf("metrics text missing %q", series)
		}
	}
}

// TestDrainLeavesNoLiveJobs: a clean drain leaves no job files — cancelled
// jobs were reported to their clients, so re-admitting them after a
// graceful shutdown would be wrong.
func TestDrainLeavesNoLiveJobs(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal")
	inj, err := faults.Parse("run:delay:1:10m")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JournalPath: journalPath, Faults: inj, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, workload := range []string{"mcf", "x264"} { // one running, one queued
		if _, err := s.submit(sim.RunSpec{Workload: workload, Insts: 8000}, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := jobFiles(t, journalPath); len(got) != 2 {
		t.Fatalf("journal holds %v before the drain, want both jobs' files", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_ = s.Drain(ctx) // deadline forces cancellation of the sleeping run
	if got := jobFiles(t, journalPath); len(got) != 0 {
		t.Errorf("journal holds %v after drain; they would wrongly come back", got)
	}
}

// TestJournalKeepsEveryAcceptedJob: an accepted job whose journal entry is
// oversized (a workload name of 1 MiB + 10 bytes) may cost at most itself.
// The jobs accepted before and after it come back under their IDs when the
// next incarnation opens the same journal.
func TestJournalKeepsEveryAcceptedJob(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal")
	inj, err := faults.Parse("run:delay:1:10m")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 1, JournalPath: journalPath, Faults: inj, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	var ids []string
	for _, workload := range []string{"mcf", strings.Repeat("w", 1<<20+10), "x264"} {
		j, err := s1.submit(sim.RunSpec{Workload: workload, Policy: core.PolicySPB, SQSize: 14, Insts: 4000}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.id)
	}

	s2, err := New(Config{Workers: 1, JournalPath: journalPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{ids[0], ids[2]} {
		j := s2.jobByID(id)
		if j == nil {
			t.Errorf("accepted job %s was not re-admitted", id)
			continue
		}
		if !j.view().Recovered {
			t.Errorf("job %s resolves but is not marked recovered", id)
		}
	}
}
