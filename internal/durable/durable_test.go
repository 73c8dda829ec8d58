package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	for _, sync := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "shard", "entry.json") // the directory does not exist yet
		if err := WriteFile(path, []byte("one"), sync); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, []byte("two"), sync); err != nil {
			t.Fatal(err)
		}
		if got := read(t, path); got != "two" {
			t.Errorf("sync=%t: file holds %q, want the second write", sync, got)
		}
		ents, _ := os.ReadDir(filepath.Dir(path))
		if len(ents) != 1 {
			t.Errorf("sync=%t: %d directory entries after two writes, want the file alone", sync, len(ents))
		}
	}
}

// TestInterruptedWriteLeavesOldBytesAndSweepableTemp: a writer that dies
// after its temp file exists (writeTemp is WriteFile up to the rename) has
// changed nothing a reader can see, and what it left is exactly what
// SweepTemps removes.
func TestInterruptedWriteLeavesOldBytesAndSweepableTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ab", "entry.json")
	if err := WriteFile(path, []byte("old"), false); err != nil {
		t.Fatal(err)
	}
	tmp, err := writeTemp(path, []byte("new, never renamed"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "old" {
		t.Fatalf("interrupted write changed the file to %q", got)
	}
	if !isTemp(filepath.Base(tmp)) || filepath.Dir(tmp) != filepath.Dir(path) {
		t.Fatalf("temp %q is not a sweepable name beside %q", tmp, path)
	}
	if n := SweepTemps(dir); n != 1 {
		t.Errorf("SweepTemps removed %d files, want 1", n)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp survived the sweep (stat err: %v)", err)
	}
	if got := read(t, path); got != "old" {
		t.Errorf("the sweep damaged the real entry: %q", got)
	}
}

// TestSweepKeepsEverythingNotTempShaped: entries, quarantined files, hidden
// files, files that merely mention tmp, and temp-shaped directory names are
// none of the sweep's business.
func TestSweepKeepsEverythingNotTempShaped(t *testing.T) {
	dir := t.TempDir()
	keep := []string{
		"entry.json", "entry.json.corrupt", "journal.ndjson", "a.log",
		".hidden", "x.tmp", "tmp", "entry.tmp123.json", filepath.Join("sub", "deep.json"),
		filepath.Join(".dir.tmp1", "inside.json"),
	}
	for _, name := range keep {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	debris := []string{".entry.json.tmp42", filepath.Join("sub", ".deep.json.tmp7")}
	for _, name := range debris {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := SweepTemps(dir); n != len(debris) {
		t.Errorf("SweepTemps removed %d files, want %d", n, len(debris))
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("the sweep touched %s: %v", name, err)
		}
	}
	if n := SweepTemps(filepath.Join(dir, "no-such-dir")); n != 0 {
		t.Errorf("sweeping a missing directory removed %d files", n)
	}
}

func TestQuarantineMovesAside(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entry.json")
	if err := os.WriteFile(path, []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	Quarantine(path)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("quarantined file still readable at its path (stat err: %v)", err)
	}
	if got := read(t, path+".corrupt"); got != "bad" {
		t.Errorf(".corrupt holds %q, want the bad bytes", got)
	}
}

func TestRemoveIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.json")
	if err := WriteFile(path, []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Remove(path); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("file survived Remove (stat err: %v)", err)
	}
}
