package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"

	"spb/internal/durable"
)

// The job journal is spbd's write-ahead log of admissions: every job that
// consumes queue space appends an "accepted" record (spec, tenant, trace ID)
// before the submitter is answered, a "started" record when a worker picks
// it up, and exactly one terminal record when it finishes.
// On startup the journal is replayed: jobs with an accepted record but no
// terminal record were queued or running when the previous process died —
// kill -9, OOM, power loss — and are re-admitted under their original IDs so
// clients polling those IDs find their jobs again instead of a 404.
//
// The format is append-only NDJSON, one checksummed record per line. That
// shape makes crash tolerance structural rather than clever: a record is
// either a complete line with a valid self-checksum or it is ignored. A torn
// tail (the write that was in flight when the power went), a truncated file,
// a duplicated line after an aborted compaction — all degrade to "skip the
// bad line", never to a parse failure or a resurrected terminal job.
// Compaction happens on open, when there is exactly one reader and no
// writers: live accepted records are rewritten to a fresh file (atomically,
// durable.WriteFile) and the history of finished jobs is dropped.

// journalRecord is one NDJSON line. Kind is the lifecycle edge; Key, Tenant,
// TraceID and Spec travel only on "accepted" records (the others are matched
// by ID). Sum is the hex SHA-256 of the record's own serialization with Sum
// blanked — the same self-checksum convention as the disk store's entries.
type journalRecord struct {
	Kind    string      `json:"kind"`
	ID      string      `json:"id"`
	Key     string      `json:"key,omitempty"`
	Tenant  string      `json:"tenant,omitempty"`
	TraceID string      `json:"trace_id,omitempty"`
	Spec    *RunRequest `json:"spec,omitempty"`
	Sum     string      `json:"sum,omitempty"`
}

// Record kinds. The terminal kinds deliberately mirror the Status strings so
// a journal line reads like the job view it produced.
const (
	journalAccepted = "accepted"
	journalStarted  = "started"
)

// terminalKind reports whether kind ends a job's life in the journal.
func terminalKind(kind string) bool {
	switch kind {
	case string(StatusDone), string(StatusFailed), string(StatusCancelled):
		return true
	}
	return false
}

// seal computes the record's self-checksum.
func (r journalRecord) seal() string {
	r.Sum = ""
	data, _ := json.Marshal(r) // plain fields: cannot fail
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// recoveredJob is one job the journal replay found alive: accepted by the
// previous process, never finished. Started distinguishes "was mid-run" from
// "was still queued" (both re-enter the queue; the flag feeds metrics/logs).
type recoveredJob struct {
	ID      string
	Tenant  string
	TraceID string
	Req     RunRequest
	Started bool
}

// journal is the open write-ahead log. All methods are nil-safe so call
// sites need no journaling-enabled guards.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	sync bool

	// onError observes append/sync failures (metrics + log). Journal write
	// errors never fail the job they describe — losing durability for one
	// transition is strictly better than failing live work.
	onError func(err error)
}

// maxJournalLine bounds one record; far above any real spec, far below
// anything that could OOM the replay scanner on a garbage file.
const maxJournalLine = 1 << 20

// openJournal opens (creating if needed) the journal at path, replays it,
// compacts it to only the live accepted records, and returns the journal
// ready for appending plus the live jobs in acceptance order.
func openJournal(path string, syncWrites bool, onError func(error)) (*journal, []recoveredJob, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	live, recs := replayJournal(data)

	// Compact: rewrite only the surviving accepted records, atomically. A
	// crash anywhere in here leaves either the old file or the new one —
	// both replay to the same live set.
	var buf bytes.Buffer
	for _, rec := range recs {
		line, merr := json.Marshal(rec)
		if merr != nil {
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := durable.WriteFile(path, buf.Bytes(), syncWrites); err != nil {
		return nil, nil, fmt.Errorf("server: compact journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	return &journal{f: f, path: path, sync: syncWrites, onError: onError}, live, nil
}

// replayJournal folds the raw journal bytes into the set of live jobs (in
// acceptance order) and their surviving accepted records. Tolerance is
// structural: any line that is not a complete, checksum-valid record is
// skipped. Terminal records win unconditionally — a terminal ID can never be
// resurrected by a duplicated or reordered accepted record, so replaying a
// journal mangled by torn writes or aborted compactions is at worst lossy,
// never wrong.
func replayJournal(data []byte) ([]recoveredJob, []journalRecord) {
	type state struct {
		rec     journalRecord
		started bool
	}
	liveByID := make(map[string]*state)
	terminal := make(map[string]bool)
	var order []string

	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 64*1024), maxJournalLine)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue // torn or garbage line
		}
		if rec.ID == "" || rec.Sum == "" || rec.Sum != rec.seal() {
			continue // incomplete or bit-rotted record
		}
		switch {
		case terminalKind(rec.Kind):
			terminal[rec.ID] = true
			delete(liveByID, rec.ID)
		case rec.Kind == journalAccepted:
			if terminal[rec.ID] || rec.Spec == nil {
				continue // never resurrect; an accepted record without a spec is useless
			}
			if _, dup := liveByID[rec.ID]; dup {
				continue // duplicated line (aborted compaction): first wins
			}
			liveByID[rec.ID] = &state{rec: rec}
			order = append(order, rec.ID)
		case rec.Kind == journalStarted:
			if st, ok := liveByID[rec.ID]; ok {
				st.started = true
			}
		}
	}
	var live []recoveredJob
	var recs []journalRecord
	for _, id := range order {
		st, ok := liveByID[id]
		if !ok {
			continue // finished later in the file
		}
		live = append(live, recoveredJob{
			ID:      id,
			Tenant:  st.rec.Tenant,
			TraceID: st.rec.TraceID,
			Req:     *st.rec.Spec,
			Started: st.started,
		})
		recs = append(recs, st.rec)
		if st.started {
			// Preserve the was-mid-run fact across compaction so a second
			// crash before anything else happens replays identically.
			started := journalRecord{Kind: journalStarted, ID: id}
			started.Sum = started.seal()
			recs = append(recs, started)
		}
	}
	return live, recs
}

// append seals and writes one record. Failures are reported to onError and
// swallowed: the job carries on, merely less durable.
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	rec.Sum = rec.seal()
	line, err := json.Marshal(rec)
	if err != nil {
		jl.fail(err)
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return
	}
	if _, err := jl.f.Write(append(line, '\n')); err != nil {
		jl.fail(err)
		return
	}
	if jl.sync {
		if err := jl.f.Sync(); err != nil {
			jl.fail(err)
		}
	}
}

func (jl *journal) fail(err error) {
	if jl.onError != nil {
		jl.onError(err)
	}
}

// accepted journals a job's admission; it must be durable before the
// submitter is answered, so a crash after the 202 cannot lose the job.
func (jl *journal) accepted(id, key, tenant, traceID string, req RunRequest) {
	jl.append(journalRecord{Kind: journalAccepted, ID: id, Key: key, Tenant: tenant, TraceID: traceID, Spec: &req})
}

// started journals a worker picking the job up.
func (jl *journal) started(id string) {
	jl.append(journalRecord{Kind: journalStarted, ID: id})
}

// terminal journals the job's final state.
func (jl *journal) terminal(id string, st Status) {
	jl.append(journalRecord{Kind: string(st), ID: id})
}

// Close flushes and closes the journal file.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
