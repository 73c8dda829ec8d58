package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"spb/internal/cpu"
	"spb/internal/durable"
)

// Mid-run checkpoints (DESIGN.md §12, "Where a run may start"). A long run
// periodically serializes its position in the run plan and the machine there,
// so a daemon killed mid-run resumes from the last checkpoint instead of
// restarting, with byte-identical final statistics — the property the
// content-addressed caches require, proven by the crash-resume tests at every
// segment edge and at marks inside detailed segments.
//
// A checkpoint is taken where the covered instruction count crosses the
// cadence: at a segment edge, where no cores exist and the machine state plus
// the cursor are everything; or at a progressEvery step mark inside a detailed
// segment, where it also carries every core's pipeline, the stream positions
// and the open measurement window.
//
// On-disk format: magic | version | payload length | gob payload | SHA-256
// over everything before the digest. Any mismatch — torn write, bit rot,
// version or spec change, a payload that does not fit this binary's machine —
// quarantines the file under the *.corrupt convention (PR 4) and the run
// restarts from scratch; a checkpoint can therefore never make a run wrong,
// only cheaper.

// ckptMagic opens every checkpoint file.
const ckptMagic = "SPBCKPT1"

// ckptVersion is bumped whenever the payload layout or any serialized
// structure changes meaning; older files are quarantined, not migrated.
// Version 2: the directory moved into the L3's lines (cache.Snapshot lines
// carry owner/sharers, memsys.SystemSnapshot has no directory shards) and
// the in-flight miss list is stored ascending.
// Version 3: cache.Snapshot carries a recency word and a live mask per set
// instead of tags, use stamps and a clock; the detailed payload has no round
// counter and cpu.Snapshot no idle flag.
// Version 4: one payload for every run — plan cursor, machine state, and the
// cores, stream positions and window of a checkpoint taken inside a segment.
// Version 5: snapshots are encoded directly (no per-type Gob methods, no
// nested gob streams); DRAM and detector snapshots carry mutable state only.
// Version 6: cache.Snapshot.Lines holds the live ways only, one line per live
// bit in set-then-way order, instead of every way with the free ones zeroed;
// the store buffer's forwarding filter grew to 4096 counters.
// Version 7: a core borrows its machine's TLB and predictor, so cpu.Snapshot
// carries neither, nor a clock besides St.Cycles; memsys.SystemSnapshot has no
// L3Accesses or WritebacksL3.
// Version 8: cache.Snapshot carries its live lines as one packed record stream
// (Records) instead of a []Line, and a recent-eviction set its live ring
// window and occupied table slots instead of dense arrays.
// TestCkptFormIsPlainStructs pins each version's form (ckptForms).
const ckptVersion = 8

// CheckpointPolicy configures mid-run checkpointing on a Runner. The zero
// value disables it.
type CheckpointPolicy struct {
	// Dir is the directory checkpoint files live in ("" disables).
	Dir string
	// Insts is the cadence in per-core committed instructions between
	// checkpoint writes (0 disables).
	Insts uint64
	// Sync applies the full fsync discipline to checkpoint writes (temp
	// fsync before rename, directory fsync after), matching the store's
	// -store-sync behaviour.
	Sync bool
	// KeyOf names the checkpoint file for a spec — the server passes its
	// content-address function so a restarted daemon finds the file again
	// (nil disables).
	KeyOf func(RunSpec) string
	// OnWrite, when non-nil, runs after each durable checkpoint write with
	// the file's path. A non-nil error aborts the run with it — the
	// equivalence test uses this to simulate a crash immediately after
	// every boundary.
	OnWrite func(path string) error
}

func (p CheckpointPolicy) enabled() bool {
	return p.Dir != "" && p.Insts > 0 && p.KeyOf != nil
}

// SetCheckpointPolicy installs (or, with the zero value, removes) the
// runner's checkpoint policy. Checkpointing never changes a run's
// statistics — a checkpointed or resumed run is byte-identical to an
// uninterrupted one — so the policy is deliberately not part of the
// memoization key.
func (r *Runner) SetCheckpointPolicy(p CheckpointPolicy) {
	r.warmMu.Lock()
	r.ckpt = p
	r.warmMu.Unlock()
}

// CheckpointPolicy returns the runner's current checkpoint policy.
func (r *Runner) CheckpointPolicy() CheckpointPolicy {
	r.warmMu.Lock()
	defer r.warmMu.Unlock()
	return r.ckpt
}

// ckptFile is a checkpoint's gob payload: a position in a spec's plan and the
// machine at it. A warm-start group's snapshot is the same value kept in
// memory: the edge after segment 0, with no Spec, since every member of the
// group starts from it.
//
// Every type reachable from it is a plain struct of exported fields that gob
// encodes as it stands: a unit's Snapshot is its serialized form, and its Fits
// is all that stands between a decoded file and Restore. New state is a field
// declaration plus its copy-out and copy-in lines
// (TestCkptFormIsPlainStructs, TestCkptRoundTripIsIdentity).
type ckptFile struct {
	Spec  RunSpec // normalized; must match the resuming spec exactly
	Cur   cursor
	State *machineState

	// Set only by a checkpoint taken inside detailed segment Cur.Seg: the
	// cores, how far each has read into the segment, and the open window.
	Cores []*cpu.Snapshot
	Seen  []uint64
	Win   *window
}

// fitsCores reports why a decoded mid-segment checkpoint cannot be restored
// into the segment's freshly built cores.
func (cf *ckptFile) fitsCores(cores []*cpu.Core) error {
	n, w := len(cores), cf.Win
	if len(cf.Cores) != n || len(cf.Seen) != n || w == nil ||
		len(w.Start) != n || len(w.End) != n || len(w.Started) != n || len(w.Ended) != n {
		return fmt.Errorf("core state missing or of another core count")
	}
	for i, c := range cores {
		if err := cf.Cores[i].Fits(c); err != nil {
			return err
		}
	}
	return nil
}

// checkpointer is one run's handle on its checkpoint file. A nil
// *checkpointer is a run that is not checkpointed.
type checkpointer struct {
	path    string
	sync    bool
	spec    RunSpec
	onWrite func(string) error
	runner  *Runner // counter sink
	// step is the cadence and next the boundary the next write waits for, both
	// in instructions the plan has covered over all cores (policy.Insts is per
	// core); boundaries sit at the multiples of step.
	step, next uint64
}

// checkpointerFor returns the run's checkpointer under the current policy,
// or nil when checkpointing is off.
func (r *Runner) checkpointerFor(spec RunSpec) *checkpointer {
	p := r.CheckpointPolicy()
	if !p.enabled() {
		return nil
	}
	return &checkpointer{
		path:    filepath.Join(p.Dir, p.KeyOf(spec)+".ckpt"),
		sync:    p.Sync,
		spec:    spec,
		onWrite: p.OnWrite,
		runner:  r,
		step:    p.Insts * uint64(spec.Cores),
	}
}

// arm sets the next boundary to the first one past done covered instructions.
func (c *checkpointer) arm(done uint64) {
	if c != nil {
		c.next = (done/c.step + 1) * c.step
	}
}

// due reports whether done covered instructions have reached the boundary,
// and if so moves the boundary past them.
func (c *checkpointer) due(done uint64) bool {
	if c == nil || done < c.next {
		return false
	}
	c.arm(done)
	return true
}

// encodeCkpt renders the envelope: magic | version | length | payload | digest.
func encodeCkpt(cf *ckptFile) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cf); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], ckptVersion)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// errCkptInvalid covers every way a checkpoint file can fail validation.
var errCkptInvalid = errors.New("sim: invalid checkpoint")

// decodeCkpt verifies the envelope and returns the payload.
func decodeCkpt(data []byte) (*ckptFile, error) {
	hdrLen := len(ckptMagic) + 12
	if len(data) < hdrLen+sha256.Size {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", errCkptInvalid, len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", errCkptInvalid)
	}
	if v := binary.BigEndian.Uint32(data[len(ckptMagic) : len(ckptMagic)+4]); v != ckptVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errCkptInvalid, v, ckptVersion)
	}
	plen := binary.BigEndian.Uint64(data[len(ckptMagic)+4 : hdrLen])
	if uint64(len(data)) != uint64(hdrLen)+plen+sha256.Size {
		return nil, fmt.Errorf("%w: length mismatch", errCkptInvalid)
	}
	body := data[:uint64(hdrLen)+plen]
	want := data[uint64(hdrLen)+plen:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCkptInvalid)
	}
	cf := &ckptFile{}
	if err := gob.NewDecoder(bytes.NewReader(body[hdrLen:])).Decode(cf); err != nil {
		return nil, fmt.Errorf("%w: %v", errCkptInvalid, err)
	}
	return cf, nil
}

// save durably writes the checkpoint (durable.WriteFile: the previous
// checkpoint is replaced atomically, so a crash during save leaves either
// the old or the new file intact), then runs the OnWrite hook.
func (c *checkpointer) save(cf *ckptFile) error {
	data, err := encodeCkpt(cf)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(c.path, data, c.sync); err != nil {
		return err
	}
	c.runner.ckptWrites.Add(1)
	if c.onWrite != nil {
		if err := c.onWrite(c.path); err != nil {
			return err
		}
	}
	return nil
}

// load reads and validates the run's checkpoint. A missing file (or a run that
// is not checkpointed) returns nil. Any invalid file — torn, corrupt, wrong
// version, wrong spec — is quarantined under the *.corrupt convention and
// reported as absent, so the run restarts from scratch.
func (c *checkpointer) load() *ckptFile {
	if c == nil {
		return nil
	}
	data, err := os.ReadFile(c.path)
	if err != nil {
		return nil
	}
	cf, err := decodeCkpt(data)
	if err != nil || cf.Spec != c.spec {
		c.quarantine()
		return nil
	}
	return cf
}

// quarantine moves the checkpoint aside for post-mortem inspection instead
// of deleting evidence (durable.Quarantine) and counts it.
func (c *checkpointer) quarantine() {
	durable.Quarantine(c.path)
	c.runner.ckptCorrupt.Add(1)
}

// clear removes the checkpoint after its run completed; the result now
// lives in the caches, so the checkpoint is dead weight.
func (c *checkpointer) clear() {
	if c != nil {
		os.Remove(c.path)
	}
}
