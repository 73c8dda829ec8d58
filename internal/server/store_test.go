package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spb/internal/core"
	"spb/internal/faults"
	"spb/internal/sim"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 5000}
	res, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(spec)

	if _, ok, err := store.Get(key); err != nil || ok {
		t.Fatalf("Get before Put = ok %v err %v, want miss", ok, err)
	}
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	back, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok %v err %v", ok, err)
	}
	if back != res {
		t.Fatalf("round trip changed the result:\n  got  %+v\n  want %+v", back, res)
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}

	// Same stats serialization on both sides of the trip (the property the
	// service's byte-comparability rests on).
	a, _ := res.StatsJSON()
	b, _ := back.StatsJSON()
	if string(a) != string(b) {
		t.Fatalf("stats serialization changed across the disk round trip")
	}
}

// storedEntry simulates one cache write and hands back the store, key, the
// expected result, and the entry's on-disk path.
func storedEntry(t *testing.T) (*DiskStore, string, sim.Result, string) {
	t.Helper()
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 5000}
	res, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(spec)
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	return store, key, res, store.path(key)
}

// expectQuarantine asserts that reading key now misses without error, that
// OnCorrupt fired, and that the damaged bytes moved to a .corrupt file.
func expectQuarantine(t *testing.T, store *DiskStore, key, path string) {
	t.Helper()
	var reported []string
	store.OnCorrupt = func(k string, err error) { reported = append(reported, k) }
	if _, ok, err := store.Get(key); err != nil || ok {
		t.Fatalf("corrupt entry Get = ok %v err %v, want clean miss", ok, err)
	}
	if len(reported) != 1 || reported[0] != key {
		t.Fatalf("OnCorrupt reported %v, want [%s]", reported, key)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry still readable at %s", path)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
	// Quarantined entries are not entries: Len ignores them, and a restart
	// (fresh DiskStore over the same dir) stays clean.
	if n, err := store.Len(); err != nil || n != 0 {
		t.Fatalf("Len after quarantine = %d, %v; want 0", n, err)
	}
	reopened, err := OpenDiskStore(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := reopened.Get(key); err != nil || ok {
		t.Fatalf("reopened Get = ok %v err %v, want clean miss", ok, err)
	}
}

// flipEntryByte flips one bit of an alphanumeric byte inside the entry's
// stats payload. The stats field is a raw JSON blob the store round-trips
// verbatim, so token-level damage there is always visible to the content
// checksum — a flip elsewhere can land on a struct field name whose value
// is the zero value, which parses back to an identical entry and
// legitimately passes verification.
func flipEntryByte(t *testing.T, path string) {
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

func TestDiskStoreQuarantinesBitFlip(t *testing.T) {
	store, key, res, path := storedEntry(t)
	flipEntryByte(t, path)
	expectQuarantine(t, store, key, path)
	// Recompute + Put heals the entry in place.
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	back, ok, err := store.Get(key)
	if err != nil || !ok || back != res {
		t.Fatalf("healed entry Get = ok %v err %v", ok, err)
	}
}

func TestDiskStoreQuarantinesTruncation(t *testing.T) {
	store, key, _, path := storedEntry(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	expectQuarantine(t, store, key, path)
}

func TestDiskStoreQuarantinesChecksumlessEntry(t *testing.T) {
	// Entries written before checksumming (no "sum" field) are not trusted:
	// strip the field and the entry must quarantine, not serve.
	store, key, _, path := storedEntry(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(string(data), `"sum"`, `"xum"`, 1)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	expectQuarantine(t, store, key, path)
}

func TestDiskStoreQuarantinesKeyMismatch(t *testing.T) {
	store, key, _, _ := storedEntry(t)
	// Rename the entry under a different key: the envelope check must catch
	// the mismatch instead of serving the wrong result.
	other := strings.Repeat("cd", 32)
	otherPath := store.path(other)
	if err := os.MkdirAll(filepath.Dir(otherPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(store.path(key), otherPath); err != nil {
		t.Fatal(err)
	}
	expectQuarantine(t, store, other, otherPath)
}

// TestDiskStoreQuarantinesStatsItCannotRebuild: an entry whose checksum and
// canonical form hold but whose stats no run can have exported (here
// td.cycles out of line with cpu.cycles) is quarantined, not served.
func TestDiskStoreQuarantinesStatsItCannotRebuild(t *testing.T) {
	store, key, _, path := storedEntry(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	var stats map[string]uint64
	if err := json.Unmarshal(e.Stats, &stats); err != nil {
		t.Fatal(err)
	}
	stats["td.cycles"]++
	if e.Stats, err = json.Marshal(stats); err != nil {
		t.Fatal(err)
	}
	e.Sum = e.sum()
	data, _ = json.MarshalIndent(e, "", "\t")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	expectQuarantine(t, store, key, path)
}

func TestDiskStoreInjectedCorruptionHeals(t *testing.T) {
	// The fault injector's read-side bit flip drives the same quarantine
	// path without touching the file ourselves.
	store, key, res, path := storedEntry(t)
	store.Faults = faults.MustParse("store.read:corrupt:1:limit=1")
	expectQuarantine(t, store, key, path)
	if store.Faults.Fires("store.read") != 1 {
		t.Fatalf("corrupt rule fired %d times, want 1", store.Faults.Fires("store.read"))
	}
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if back, ok, err := store.Get(key); err != nil || !ok || back != res {
		t.Fatalf("post-heal Get = ok %v err %v", ok, err)
	}
}

func TestDiskStoreInjectedIOErrorsSurface(t *testing.T) {
	// Real I/O failures (as opposed to corrupt payloads) stay errors so the
	// server can count them toward degraded mode.
	store, key, res, _ := storedEntry(t)
	store.Faults = faults.MustParse("store.read:error:1:limit=1;store.write:error:1:limit=1")
	if _, _, err := store.Get(key); err == nil {
		t.Fatal("injected read error did not surface")
	}
	if err := store.Put(key, res); err == nil {
		t.Fatal("injected write error did not surface")
	}
	// Fault budget spent: the tier works again.
	if back, ok, err := store.Get(key); err != nil || !ok || back != res {
		t.Fatalf("Get after fault budget = ok %v err %v", ok, err)
	}
}

// TestDiskStoreServesEntryWithRetiredSpecField: an entry written while
// sim.RunSpec still had its ModelBranchPredictor field (bwaves, SB 14, 2 000
// instructions; the result's Spec in testdata carries
// "ModelBranchPredictor": false) keeps its content address, so it must be
// served with the statistics a fresh run makes, not quarantined as corrupt
// because the decoded result can no longer hold that field.
func TestDiskStoreServesEntryWithRetiredSpecField(t *testing.T) {
	data, err := os.ReadFile("testdata/entry-with-retired-spec-field.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"ModelBranchPredictor": false`)) {
		t.Fatal("testdata entry lost the retired field it exists to carry")
	}
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.OnCorrupt = func(_ string, err error) { t.Errorf("entry quarantined: %v", err) }
	spec := sim.RunSpec{Workload: "bwaves", SQSize: 14, Insts: 2000}
	path := store.path(Key(spec))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Get(Key(spec))
	if err != nil || !ok {
		t.Fatalf("Get = ok %v err %v, want a hit", ok, err)
	}
	want, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	gs, _ := got.StatsJSON()
	ws, _ := want.StatsJSON()
	if !bytes.Equal(gs, ws) {
		t.Fatalf("stored stats differ from a fresh run's:\n  got  %s\n  want %s", gs, ws)
	}
}
