package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"spb/internal/bpred"
	"spb/internal/config"
	"spb/internal/cpu"
	"spb/internal/memsys"
	"spb/internal/obs"
	"spb/internal/prefetch"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// Mid-run checkpoints (DESIGN.md §15). A long run periodically serializes
// its full architectural state to disk so a daemon killed mid-run resumes
// from the last checkpoint instead of restarting, with byte-identical final
// statistics — the property the content-addressed caches require, proven by
// TestCheckpointResumeEquivalence at every boundary.
//
// What a checkpoint contains depends on the mode:
//
//   - Detailed runs snapshot mid-flight: every core's pipeline (ROB, store
//     buffer, occupancy trackers, RNG, statistics), the shared memory
//     system and the trained generic prefetchers. Boundaries are the
//     progressEvery step marks where aggregate committed instructions cross
//     the cadence. Each core carries its own clock: one asleep at its event
//     horizon is captured ahead of the others, and the resumed loop starts
//     at the earliest clock.
//   - Sampled runs snapshot at the quiescent top of the sampling-window
//     loop (no cores exist there), carrying the persistent functional state
//     (memory system, prefetchers, TLBs, predictors), the window
//     accumulators and the scheduler locals (jitter, cycle base, pending
//     skip). Boundaries therefore align with sampling-window edges.
//
// Trace-reader state is never serialized: a Program's cursor after n
// instructions is a pure function of (workload, seed, n) and Skip(n) is
// state-equivalent to n Next calls, so the checkpoint records only how many
// instructions each reader has consumed and the resume replays the
// generator — cheap (bulk Skip) and immune to generator-internals drift
// within a checkpoint version.
//
// On-disk format: magic | version | payload length | gob payload | SHA-256
// over everything before the digest. Any mismatch — torn write, bit rot,
// version or spec change — quarantines the file under the *.corrupt
// convention (PR 4) and the run restarts from scratch; a checkpoint can
// therefore never make a run wrong, only cheaper.

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
const ckptVersion = 3

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

// detailedCkpt is the mid-flight state of a full-detail run between two
// steps of cpu.Lockstep.
type detailedCkpt struct {
	Consumed []uint64 // per-core insts consumed by the underlying reader
	Seen     []uint64 // per-core Limit-wrapper position
	Cores    []*cpu.Snapshot
	Sys      *memsys.SystemSnapshot
	PF       []prefetch.State
}

// bpWire wraps a possibly-absent predictor snapshot: gob rejects nil
// pointers as slice elements but skips nil pointer fields inside structs.
type bpWire struct {
	BP *bpred.Snapshot
}

// sampledCkpt is the quiescent state of a sampled run at the top of its
// window loop.
type sampledCkpt struct {
	Remaining   uint64
	PendingSkip uint64
	Jitter      uint64
	CycleBase   uint64

	FFInsts       uint64
	DetailedInsts uint64
	MeasuredInsts uint64

	AggCPU cpu.Stats
	AggMem MemStats

	AccN     uint64
	AccSum   [nSampleMetrics]float64
	AccSumsq [nSampleMetrics]float64

	Consumed uint64 // per-core insts consumed by each underlying reader
	Sys      *memsys.SystemSnapshot
	PF       []prefetch.State
	DTLBs    []*tlb.Snapshot
	BPs      []bpWire
}

// ckptFile is a checkpoint's gob payload.
type ckptFile struct {
	Spec     RunSpec // normalized; must match the resuming spec exactly
	WarmupFF uint64
	NextCkpt uint64 // next cadence boundary, so resumes write at the same marks

	Detailed *detailedCkpt
	Sampled  *sampledCkpt
}

// checkpointer is one run's handle on its checkpoint file.
type checkpointer struct {
	path    string
	sync    bool
	spec    RunSpec
	onWrite func(string) error
	runner  *Runner // counter sink; may be nil in tests
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
	}
}

// runCkpt threads one run's checkpoint context through the simulation
// loops. A nil *runCkpt (or nil c) disables checkpointing. step is the cadence in the loop's own
// progress unit: aggregate committed instructions for detailed runs
// (policy.Insts × cores), per-core stream progress for sampled runs
// (policy.Insts) — boundaries sit at the multiples of step.
type runCkpt struct {
	c        *checkpointer
	step     uint64
	nextCkpt uint64
}

func (ck *runCkpt) active() bool { return ck != nil && ck.c != nil }

// encode renders the envelope: magic | version | length | payload | digest.
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

// save durably writes the checkpoint: temp file in the same directory,
// optional fsync, atomic rename, optional directory fsync, then the OnWrite
// hook. The previous checkpoint is replaced atomically, so a crash during
// save leaves either the old or the new file intact.
func (c *checkpointer) save(cf *ckptFile) error {
	data, err := encodeCkpt(cf)
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(c.path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if c.sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, c.path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if c.sync {
		syncDir(dir)
	}
	if c.runner != nil {
		c.runner.ckptWrites.Add(1)
	}
	if c.onWrite != nil {
		if err := c.onWrite(c.path); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Errors are ignored: some filesystems reject directory fsync, and the
// rename itself already succeeded.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// load reads and validates the run's checkpoint. A missing file returns
// (nil, false). Any invalid file — torn, corrupt, wrong version, wrong
// spec — is quarantined under the *.corrupt convention and reported as
// absent, so the run restarts from scratch.
func (c *checkpointer) load() (*ckptFile, bool) {
	data, err := os.ReadFile(c.path)
	if err != nil {
		return nil, false
	}
	cf, err := decodeCkpt(data)
	if err != nil {
		c.quarantine()
		return nil, false
	}
	if cf.Spec != c.spec {
		c.quarantine()
		return nil, false
	}
	if (cf.Detailed == nil) == (cf.Sampled == nil) {
		c.quarantine()
		return nil, false
	}
	return cf, true
}

// quarantine renames the checkpoint aside for post-mortem inspection
// instead of deleting evidence; a rename failure falls back to removal so
// the bad file cannot be re-read forever.
func (c *checkpointer) quarantine() {
	if err := os.Rename(c.path, c.path+".corrupt"); err != nil {
		os.Remove(c.path)
	}
	if c.runner != nil {
		c.runner.ckptCorrupt.Add(1)
	}
}

// clear removes the checkpoint after its run completed; the result now
// lives in the caches, so the checkpoint is dead weight.
func (c *checkpointer) clear() {
	os.Remove(c.path)
}

// skipReader advances rd by n instructions: bulk Skip when the reader
// offers it (trace.Program does), Next replay otherwise.
func skipReader(rd trace.Reader, n uint64) {
	if n == 0 {
		return
	}
	if s, ok := rd.(streamSkipper); ok {
		s.Skip(n)
		return
	}
	var in trace.Inst
	for k := uint64(0); k < n; k++ {
		if !rd.Next(&in) {
			return
		}
	}
}

// captureDetailed snapshots a detailed run between two steps.
func captureDetailed(spec RunSpec, sys *memsys.System, cores []*cpu.Core, lims []*trace.LimitReader) *detailedCkpt {
	st := &detailedCkpt{
		Consumed: make([]uint64, len(cores)),
		Seen:     make([]uint64, len(cores)),
		Cores:    make([]*cpu.Snapshot, len(cores)),
		Sys:      sys.Snapshot(),
		PF:       sys.PrefetcherStates(),
	}
	for i, c := range cores {
		st.Cores[i] = c.Snapshot()
		st.Seen[i] = lims[i].Seen()
		st.Consumed[i] = spec.WarmupInsts + lims[i].Seen()
	}
	return st
}

// restoreSystem builds the spec's memory system and loads a checkpointed
// state into it. A payload that passed the checksum but does not fit the
// machine (line counts, core count, directory state naming a missing core) is
// an invalid checkpoint — an error for the quarantine path, never the
// geometry panic Restore reserves for programming mistakes.
func restoreSystem(machine config.MachineConfig, spec RunSpec, snap *memsys.SystemSnapshot, pf []prefetch.State) (*memsys.System, error) {
	sys := memsys.New(machine, spec.Cores)
	if snap == nil || len(pf) != spec.Cores {
		sys.Release()
		return nil, fmt.Errorf("%w: memory system state missing", errCkptInvalid)
	}
	if err := snap.Fits(sys); err != nil {
		sys.Release()
		return nil, fmt.Errorf("%w: %v", errCkptInvalid, err)
	}
	sys.Restore(snap)
	sys.RestorePrefetcherStates(pf)
	return sys, nil
}

// resumeDetailed rebuilds a detailed run from a checkpoint — fresh machine,
// generators replayed to their recorded positions, every snapshot restored —
// and re-enters the loop.
func resumeDetailed(ctx context.Context, tr *obs.Trace, spec RunSpec, cf *ckptFile, ck *runCkpt, onProgress func(Progress)) (Result, error) {
	st := cf.Detailed
	machine, err := spec.machineConfig()
	if err != nil {
		return Result{}, err
	}
	readers, err := buildReaders(spec)
	if err != nil {
		return Result{}, err
	}
	if len(readers) != len(st.Cores) || len(st.Consumed) != len(st.Cores) || len(st.Seen) != len(st.Cores) {
		return Result{}, fmt.Errorf("%w: core count mismatch", errCkptInvalid)
	}
	for i, rd := range readers {
		skipReader(rd, st.Consumed[i])
	}
	sys, err := restoreSystem(machine, spec, st.Sys, st.PF)
	if err != nil {
		return Result{}, err
	}
	cores, lims := buildCores(spec, machine, sys, readers, 0)
	for i, c := range cores {
		c.Restore(st.Cores[i])
		lims[i].SetSeen(st.Seen[i])
	}
	ck.nextCkpt = cf.NextCkpt
	return runDetailed(ctx, tr, spec, sys, cores, lims, cf.WarmupFF, onProgress, ck)
}

// resumeSampled rebuilds a sampled run from a checkpoint and re-enters the
// window loop with the recorded scheduler state.
func resumeSampled(ctx context.Context, tr *obs.Trace, spec RunSpec, cf *ckptFile, ck *runCkpt, onProgress func(Progress)) (Result, error) {
	st := cf.Sampled
	machine, err := spec.machineConfig()
	if err != nil {
		return Result{}, err
	}
	readers, err := buildReaders(spec)
	if err != nil {
		return Result{}, err
	}
	if len(readers) != spec.Cores || len(st.DTLBs) != spec.Cores || len(st.BPs) != spec.Cores {
		return Result{}, fmt.Errorf("%w: core count mismatch", errCkptInvalid)
	}
	for _, rd := range readers {
		skipReader(rd, st.Consumed)
	}
	sys, err := restoreSystem(machine, spec, st.Sys, st.PF)
	if err != nil {
		return Result{}, err
	}
	dtlbs, bps := buildFunctionalState(machine, spec)
	for i := range dtlbs {
		dtlbs[i].Restore(st.DTLBs[i])
		if bps[i] != nil {
			if st.BPs[i].BP == nil {
				return Result{}, fmt.Errorf("%w: predictor presence mismatch", errCkptInvalid)
			}
			bps[i].Restore(st.BPs[i].BP)
		}
	}
	ck.nextCkpt = cf.NextCkpt
	return runSampled(ctx, tr, spec, machine, sys, readers, dtlbs, bps, cf.WarmupFF, onProgress, ck, st)
}
