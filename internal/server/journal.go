package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"spb/internal/durable"
)

// The job journal is a directory with one file per live job: <id>.json holds
// what it takes to bring the job back under its ID (spec, tenant, trace ID).
// Admission writes the file through durable.WriteFile before the submitter
// is answered, and the job's ending takes it back through durable.Remove, so
// the directory lists exactly the jobs that were accepted and had not ended
// when the previous process died — kill -9, OOM, power loss. server.New
// re-admits them under their original IDs, in sequence-number order, so
// clients polling those IDs find their jobs again instead of a 404.
//
// No two jobs share a file, so crash tolerance needs no fold over records:
// a file is a whole entry whose self-checksum holds and whose ID is its name,
// or it is quarantined and its job is born failed. A torn, oversized or
// bit-rotted file can only cost its own job.

// journalEntry is one job file. Sum is the hex SHA-256 of the entry's own
// serialization with Sum blanked — the disk store's self-checksum
// convention. err, never written, says why an entry's file failed its check.
type journalEntry struct {
	ID      string     `json:"id"`
	Tenant  string     `json:"tenant,omitempty"`
	TraceID string     `json:"trace_id,omitempty"`
	Spec    RunRequest `json:"spec"`
	Sum     string     `json:"sum,omitempty"`
	err     error
}

// seal computes the entry's self-checksum.
func (e journalEntry) seal() string {
	e.Sum = ""
	data, _ := json.Marshal(e) // plain fields: cannot fail
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// encode is the sealed file admission writes.
func (e journalEntry) encode() []byte {
	e.Sum = e.seal()
	data, _ := json.Marshal(e)
	return data
}

// decodeJournalEntry reads the file of job id. It accepts only a whole
// entry whose seal holds and whose ID is id.
func decodeJournalEntry(id string, data []byte) (journalEntry, error) {
	var e journalEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return journalEntry{}, err
	}
	if e.Sum == "" || e.Sum != e.seal() {
		return journalEntry{}, errors.New("checksum mismatch")
	}
	if e.ID != id {
		return journalEntry{}, fmt.Errorf("file holds job %q", e.ID)
	}
	return e, nil
}

// journal is the open job directory. Only a journaled job (server.go) calls
// its methods, so a daemon without a journal never reaches them.
type journal struct {
	dir string

	// onError observes write and remove failures (metrics + log). They never
	// fail the job they describe: losing durability for one job is strictly
	// better than failing live work.
	onError func(err error)
}

// openJournal opens (creating if needed) the journal directory and reads
// its live jobs in sequence-number order. A file that fails its check is
// quarantined and comes back as an entry holding only its ID and the
// reason. A regular file at dir, such as an older release's append log, is
// an error: it is neither read nor deleted.
func openJournal(dir string, onError func(error)) (*journal, []journalEntry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	var live []journalEntry
	for _, f := range files {
		id, ok := strings.CutSuffix(f.Name(), ".json")
		if !ok || id == "" || strings.HasPrefix(id, ".") || !f.Type().IsRegular() {
			continue // temps, quarantined files and anything else not a job's
		}
		path := filepath.Join(dir, f.Name())
		data, err := os.ReadFile(path)
		var e journalEntry
		if err == nil {
			e, err = decodeJournalEntry(id, data)
		}
		if err != nil {
			durable.Quarantine(path)
			e = journalEntry{ID: id, err: fmt.Errorf("journal file quarantined: %w", err)}
		}
		live = append(live, e)
	}
	slices.SortFunc(live, func(a, b journalEntry) int {
		return cmp.Or(cmp.Compare(jobSeq(a.ID), jobSeq(b.ID)), strings.Compare(a.ID, b.ID))
	})
	return &journal{dir: dir, onError: onError}, live, nil
}

// jobSeq is the sequence number a job ID starts with ("r000042-…" is 42),
// or 0 when it has none.
func jobSeq(id string) uint64 {
	var seq uint64
	fmt.Sscanf(id, "r%d-", &seq)
	return seq
}

// write makes e's file durable; admission calls it before the submitter is
// answered, so a crash after the 202 cannot lose the job.
func (jl *journal) write(e journalEntry) {
	jl.check(durable.WriteFile(filepath.Join(jl.dir, e.ID+".json"), e.encode(), true))
}

// remove takes job id's file back; the job's ending calls it.
func (jl *journal) remove(id string) {
	jl.check(durable.Remove(filepath.Join(jl.dir, id+".json")))
}

func (jl *journal) check(err error) {
	if err != nil {
		jl.onError(err)
	}
}
