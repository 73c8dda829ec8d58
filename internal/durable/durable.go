// Package durable is the one place this repository writes a file that must
// survive a crash: the disk store's entries and the job journal's job files
// are both written through WriteFile (and a job file is taken back through
// Remove), so "kill -9 leaves the old bytes or the new ones, never a torn
// file" is a property of one function. The same package owns the
// conventions around it: how a temp file is named (and therefore how the
// debris of a crashed writer is recognised and swept), how a directory entry
// is made durable, and how a file that failed validation is moved aside
// instead of deleted.
package durable

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// WriteFile atomically replaces path with data: the bytes go to a temp file
// in the same directory (created if missing), the temp is renamed over
// path, and a crash anywhere in between leaves path as it was. With sync
// the temp is fsynced before the rename and the directory after it; without
// both, "atomic" only holds against process crashes — a power loss can still
// lose or tear the file, because neither the data pages nor the directory
// update were forced to stable storage.
func WriteFile(path string, data []byte, sync bool) error {
	tmp, err := writeTemp(path, data, sync)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		syncDir(filepath.Dir(path))
	}
	return nil
}

// writeTemp is WriteFile up to the rename: the moment a killed writer leaves
// behind what SweepTemps looks for.
func writeTemp(path string, data []byte, sync bool) (string, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// ".<final>.tmp<random>": hidden, beside the file it will become, and
	// recognisable by isTemp.
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// Remove deletes path durably: the directory is fsynced after the unlink,
// so the removal survives power loss. Removing a path that is already gone
// succeeds.
func Remove(path string) error {
	err := os.Remove(path)
	if err == nil {
		syncDir(filepath.Dir(path))
	}
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// isTemp reports whether base is a name writeTemp gives its temp files.
func isTemp(base string) bool {
	return strings.HasPrefix(base, ".") && strings.Contains(base, ".tmp")
}

// syncDir fsyncs a directory so a just-renamed file's entry survives power
// loss — the half of atomic-write hygiene os.Rename alone skips.
// Best-effort: some filesystems refuse directory fsync, and the rename
// itself already succeeded.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Quarantine moves a file that failed validation aside as path+".corrupt" —
// kept for post-mortem inspection, invisible to every reader — and falls
// back to removing it when the rename fails, so the bad bytes cannot be read
// again either way.
func Quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		os.Remove(path)
	}
}

// SweepTemps removes the temp files under dir that a writer killed between
// creating one and renaming it left behind, and reports how many it removed.
// It keys on the temp name shape alone, so it cannot touch a real entry; an
// unreadable subtree is left alone (sweeping is hygiene, not correctness).
func SweepTemps(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && isTemp(d.Name()) && os.Remove(path) == nil {
			n++
		}
		return nil
	})
	return n
}
