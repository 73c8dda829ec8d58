package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"spb/internal/durable"
	"spb/internal/faults"
	"spb/internal/sim"
)

// DiskStore is the second cache tier: a content-addressed directory of
// finished results, one JSON file per spec key, sharded by the key's first
// byte (dir/ab/abcd....json) to keep directories small under large sweeps.
// Entries are written atomically (durable.WriteFile), so a crashed or
// SIGKILLed daemon never leaves a torn entry, and they survive restarts —
// a warm spbd answers repeat sweep points without simulating.
//
// Reads are checksum-verified and self-healing: every entry embeds the
// SHA-256 of its own canonical serialization, and an entry that fails to
// parse, carries the wrong key, or fails the checksum is *quarantined* —
// renamed to <name>.json.corrupt, reported through OnCorrupt, and treated
// as a miss so the caller recomputes it. Corruption therefore costs one
// re-simulation, never a wrong answer and never a fatal error, and a
// restart after quarantine is clean: .corrupt files are invisible to both
// Get and Len.
type DiskStore struct {
	dir string

	// Faults, when set, injects read/write failures and read-side payload
	// corruption at the "store.read" / "store.write" sites (tests, chaos).
	Faults *faults.Injector
	// OnCorrupt, when set, observes every quarantined entry (metrics/logs).
	OnCorrupt func(key string, err error)
	// Sync makes Put fsync the entry and its directory (durable.WriteFile),
	// so a stored result survives power loss, not just a process crash. The
	// daemon always sets it.
	Sync bool
}

// diskEntry is the stored envelope. Spec is the result's spec in wire form,
// the point the result is rebuilt for; Stats is the canonical serialization
// the service responds with, the only encoding of the result, decoded by
// sim.ParseStats; Sum is the hex SHA-256 of the entry's own serialization with
// Sum blanked — the integrity check behind self-healing reads. Entries
// written before checksumming existed carry no Sum and are deliberately
// treated as corrupt: quarantined and recomputed once, rather than trusted
// unverified. Result is the struct-layout copy of the result that entries
// written by earlier releases carry: Sum covers it, nothing decodes it, and
// Put no longer writes it.
type diskEntry struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum,omitempty"`
	Spec   RunRequest      `json:"spec"`
	Stats  json.RawMessage `json:"stats"`
	Result json.RawMessage `json:"result,omitempty"`
}

// sum computes the entry's checksum: SHA-256 over the canonical marshalling
// with the Sum field emptied.
func (e diskEntry) sum() string {
	e.Sum = ""
	data, _ := json.MarshalIndent(e, "", "\t") // strings and valid JSON: cannot fail
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// OpenDiskStore opens (creating if needed) a result store rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: open disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(key string) string {
	shard := "00"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// quarantine moves a corrupt entry aside (kept for forensics, never read
// again) and reports it. The entry then reads as a miss, so the caller
// recomputes and Put overwrites with a clean copy.
func (s *DiskStore) quarantine(key, path string, cause error) {
	durable.Quarantine(path)
	if s.OnCorrupt != nil {
		s.OnCorrupt(key, cause)
	}
}

// Get recalls the result stored under key. The boolean reports whether a
// valid entry exists. A malformed, mis-keyed or checksum-failing entry, or one
// whose stats sim.ParseStats refuses, is quarantined and reported as a miss —
// corruption heals by recomputation — while real I/O failures (disk gone,
// permissions) remain errors so the caller can count them and consider
// degrading the tier.
func (s *DiskStore) Get(key string) (sim.Result, bool, error) {
	if err := s.Faults.Err("store.read"); err != nil {
		return sim.Result{}, false, fmt.Errorf("server: disk store get: %w", err)
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return sim.Result{}, false, nil
	}
	if err != nil {
		return sim.Result{}, false, fmt.Errorf("server: disk store get: %w", err)
	}
	data = s.Faults.Corrupt("store.read", data)
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		s.quarantine(key, path, fmt.Errorf("entry does not parse: %w", err))
		return sim.Result{}, false, nil
	}
	if e.Key != key {
		s.quarantine(key, path, fmt.Errorf("entry holds key %s", e.Key))
		return sim.Result{}, false, nil
	}
	if e.Sum == "" {
		s.quarantine(key, path, errors.New("entry has no checksum"))
		return sim.Result{}, false, nil
	}
	if want := e.sum(); e.Sum != want {
		s.quarantine(key, path, fmt.Errorf("checksum mismatch (stored %.12s, computed %.12s)", e.Sum, want))
		return sim.Result{}, false, nil
	}
	// The checksum proves the decoded entry matches what was stored, but a
	// flipped byte inside an ignored region (an unknown field name, say) can
	// decode to the same entry. Entries are always written in canonical
	// indented form, so any byte-level damage at all shows up as a deviation
	// from the re-marshalling of the decoded entry.
	canon, _ := json.MarshalIndent(e, "", "\t") // as in sum: cannot fail
	if !bytes.Equal(append(canon, '\n'), data) {
		s.quarantine(key, path, errors.New("entry deviates from canonical form"))
		return sim.Result{}, false, nil
	}
	spec, err := e.Spec.Spec()
	var res sim.Result
	if err == nil {
		// The entry holds its stats indented, as it holds everything else.
		var stats bytes.Buffer
		json.Compact(&stats, e.Stats) // it parsed as JSON above: cannot fail
		res, err = sim.ParseStats(spec, stats.Bytes())
	}
	if err != nil {
		s.quarantine(key, path, fmt.Errorf("entry holds no result: %w", err))
		return sim.Result{}, false, nil
	}
	return res, true, nil
}

// Put stores res under key, atomically replacing any existing entry.
func (s *DiskStore) Put(key string, res sim.Result) error {
	s.Faults.Sleep("store.write", nil)
	if err := s.Faults.Err("store.write"); err != nil {
		return fmt.Errorf("server: disk store put: %w", err)
	}
	stats, err := res.StatsJSON()
	if err != nil {
		return fmt.Errorf("server: disk store put: %w", err)
	}
	e := diskEntry{Key: key, Spec: Request(res.Spec), Stats: stats}
	e.Sum = e.sum()
	data, _ := json.MarshalIndent(e, "", "\t") // as in sum: cannot fail
	if err := durable.WriteFile(s.path(key), append(data, '\n'), s.Sync); err != nil {
		return fmt.Errorf("server: disk store put %s: %w", key, err)
	}
	return nil
}

// Len walks the store and counts valid entries (operational introspection
// and tests; not a hot path). Quarantined .corrupt files are not entries.
func (s *DiskStore) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
