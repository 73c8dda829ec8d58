package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/cpu"
	"spb/internal/memsys"
	"spb/internal/prefetch"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// errCrash simulates kill -9 immediately after a durable checkpoint write:
// the file is on disk, the process is gone.
var errCrash = errors.New("simulated crash after checkpoint write")

func ckptTestPolicy(dir string, cadence uint64, onWrite func(string) error) CheckpointPolicy {
	return CheckpointPolicy{
		Dir:     dir,
		Insts:   cadence,
		Sync:    false, // tests don't need durability, just the file
		KeyOf:   func(s RunSpec) string { return s.Workload },
		OnWrite: onWrite,
	}
}

// crashResumeUntilDone runs spec repeatedly, crashing immediately after the
// first checkpoint write of every attempt. Attempt 1 dies at the first
// boundary; attempt k resumes from boundary k-1 and dies at boundary k; the
// final attempt resumes past the last boundary and completes. Every
// checkpoint boundary is therefore both written at and resumed from exactly
// once. observe, when given, sees every file written before the crash. Returns
// the final result and the attempt count.
func crashResumeUntilDone(t *testing.T, dir string, spec RunSpec, cadence uint64, observe ...func(path string)) (Result, int) {
	t.Helper()
	attempts := 0
	for {
		attempts++
		if attempts > 64 {
			t.Fatalf("crash/resume did not converge after %d attempts", attempts)
		}
		r := NewRunner()
		r.SetCheckpointPolicy(ckptTestPolicy(dir, cadence, func(path string) error {
			for _, f := range observe {
				f(path)
			}
			return errCrash
		}))
		res, err := r.Get(spec)
		if err == nil {
			if attempts > 1 {
				if got := r.SimStats().CheckpointResumes; got != 1 {
					t.Fatalf("final attempt: CheckpointResumes = %d, want 1", got)
				}
			}
			return res, attempts
		}
		if !errors.Is(err, errCrash) {
			t.Fatalf("attempt %d: unexpected error: %v", attempts, err)
		}
	}
}

func assertSameResult(t *testing.T, ref, got Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: Result diverges from uninterrupted run\nref: %+v\ngot: %+v", label, ref, got)
	}
	jRef, err := ref.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	jGot, err := got.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jRef, jGot) {
		t.Errorf("%s: stats JSON diverges\nref: %s\ngot: %s", label, jRef, jGot)
	}
}

// TestCheckpointResumeEquivalenceDetailed is the crash-safety tentpole
// invariant for full-detail runs: crashing immediately after every
// checkpoint boundary and resuming from it produces a Result byte-identical
// to an uninterrupted run. The spec carries a warmup prefix so the
// warm-start fork path is the one being checkpointed.
func TestCheckpointResumeEquivalenceDetailed(t *testing.T) {
	spec := RunSpec{
		Workload: "mcf", Policy: core.PolicySPB, SQSize: 14,
		Prefetcher: config.PrefetchStream,
		Insts:      40_000, WarmupInsts: 10_000,
	}
	ref, err := Run(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const cadence = 8_000
	got, attempts := crashResumeUntilDone(t, dir, spec, cadence)
	if attempts < 3 {
		t.Fatalf("only %d attempts — cadence too coarse to exercise resume at multiple boundaries", attempts)
	}
	assertSameResult(t, ref, got, "detailed")

	// The completed run must have cleared its checkpoint.
	path := filepath.Join(dir, spec.Workload+".ckpt")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint %s survived run completion (stat err: %v)", path, err)
	}
}

// TestCheckpointResumeEquivalenceSampled is the same invariant for sampled
// runs, whose checkpoints sit at sampling-window edges: interrupted-and-
// resumed sampling must reproduce the exact interval schedule, accumulator
// contents and confidence intervals.
func TestCheckpointResumeEquivalenceSampled(t *testing.T) {
	spec := RunSpec{
		Workload: "mcf", Policy: core.PolicySPB, SQSize: 14,
		Prefetcher: config.PrefetchStream,
		Insts:      100_000, WarmupInsts: 5_000,
		Sampling: SamplingConfig{IntervalInsts: 20_000, DetailedInsts: 2_000, WarmInsts: 3_000},
	}
	ref, err := Run(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const cadence = 20_000
	got, attempts := crashResumeUntilDone(t, dir, spec, cadence)
	if attempts < 3 {
		t.Fatalf("only %d attempts — cadence too coarse to exercise resume at multiple boundaries", attempts)
	}
	assertSameResult(t, ref, got, "sampled")
	if got.Sample.Intervals == 0 {
		t.Error("sampled run reports zero measured intervals")
	}
}

// TestCheckpointMultiCoreResume covers the lock-step multi-core path: all
// cores' pipelines and the shared directory must restore coherently.
func TestCheckpointMultiCoreResume(t *testing.T) {
	spec := RunSpec{
		Workload: "dedup", Cores: 4, Policy: core.PolicySPB, SQSize: 14,
		Insts: 12_000, WarmupInsts: 4_000,
	}
	ref, err := Run(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, attempts := crashResumeUntilDone(t, dir, spec, 4_000)
	if attempts < 2 {
		t.Fatalf("only %d attempts — no boundary was hit", attempts)
	}
	assertSameResult(t, ref, got, "multicore")
}

// readCkpt decodes the checkpoint file at path.
func readCkpt(t *testing.T, path string) *ckptFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCkpt(data)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// coresApart reports whether a mid-segment checkpoint caught its cores at
// different clocks.
func coresApart(cf *ckptFile) bool {
	for _, c := range cf.Cores[1:] {
		if c.St.Cycles != cf.Cores[0].St.Cycles {
			return true
		}
	}
	return false
}

// TestCheckpointResumeCoresAtDifferentClocks: cores asleep at their event
// horizons are captured with their clocks ahead of the awake ones. A run
// crashed at every boundary and resumed from it must still end byte-identical
// to the uninterrupted run and to the loop that never lets a core sleep, and
// the test insists that the boundaries it resumed from did catch the cores
// apart.
func TestCheckpointResumeCoresAtDifferentClocks(t *testing.T) {
	spec := RunSpec{
		Workload: "canneal", Cores: 8, Policy: core.PolicySPB, SQSize: 14,
		Insts: 30_000,
	}
	ref, err := Run(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	noSleep := spec
	noSleep.DisableFastForward = true
	tick, err := Run(noSleep.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.CPU, tick.CPU) || !reflect.DeepEqual(ref.Mem, tick.Mem) {
		t.Fatalf("per-core sleeping diverges from the every-cycle loop\nsleep: %+v\ntick:  %+v", ref.CPU, tick.CPU)
	}

	apart := 0
	got, attempts := crashResumeUntilDone(t, t.TempDir(), spec, 2_000, func(path string) {
		if coresApart(readCkpt(t, path)) {
			apart++
		}
	})
	if attempts < 3 {
		t.Fatalf("only %d attempts — cadence too coarse to resume at multiple boundaries", attempts)
	}
	assertSameResult(t, ref, got, "multicore, cores apart")
	if apart == 0 {
		t.Fatal("no checkpoint caught the cores at different clocks; the test does not cover what it claims")
	}
}

// rewrite returns a corruption that decodes a valid checkpoint file, lets
// mutate change the payload, and seals it again under a fresh checksum: what a
// binary with another idea of the machine would have written.
func rewrite(mutate func(t *testing.T, cf *ckptFile)) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		cf := readCkpt(t, path)
		mutate(t, cf)
		data, err := encodeCkpt(cf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptL1 returns a corruption that gives core 0 inside a valid checkpoint
// file the L1 of the machine's geometry holding block 0 alone — set 0, way 0,
// whose record opens the stream: {tag 0, Shared, no owner, no sharers, ready
// at 0} — lets mutate change it, and checks that the memory system refuses the
// result for the reason the row is named for.
func corruptL1(mutate func(l1 *cache.Snapshot), wantErr string) func(*testing.T, string) {
	return rewrite(func(t *testing.T, cf *ckptFile) {
		cfg := config.Skylake().L1D
		c := cache.New(cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.MSHRs)
		c.Insert(0, cache.Shared, 0, false, false)
		l1 := c.Snapshot()
		c.Release()
		if want := []byte{0, byte(cache.Shared), 0, 0, 0}; !bytes.Equal(l1.Records, want) {
			t.Fatalf("an L1 holding block 0 has records %v, want %v", l1.Records, want)
		}
		mutate(l1)
		cf.State.Sys.Ports[0].L1 = l1
		sys := memsys.New(config.Skylake(), 1)
		err := cf.State.Sys.Fits(sys)
		sys.Release()
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("corrupted snapshot: Fits = %v, want an error containing %q", err, wantErr)
		}
	})
}

// foreignCore builds a core of another Table II configuration than the
// quarantine table's spec runs on and snapshots it.
func foreignCore(t *testing.T) *cpu.Snapshot {
	t.Helper()
	other := config.Skylake()
	for _, c := range config.Cores() {
		if c.ROBSize != other.Core.ROBSize {
			other.Core = c
			break
		}
	}
	sys := memsys.New(other, 1)
	defer sys.Release()
	c := cpu.New(other.Core, core.PolicyAtCommit, other.SPB, sys.Port(0), trace.Limit(0, nil), 1)
	defer c.Release()
	return c.Snapshot()
}

// writeCrashCheckpoint produces one valid checkpoint file for spec (crashing
// right after the first write) and returns its path.
func writeCrashCheckpoint(t *testing.T, dir string, spec RunSpec, cadence uint64) string {
	t.Helper()
	r := NewRunner()
	r.SetCheckpointPolicy(ckptTestPolicy(dir, cadence, func(string) error { return errCrash }))
	if _, err := r.Get(spec); !errors.Is(err, errCrash) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	path := filepath.Join(dir, spec.Workload+".ckpt")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	return path
}

// TestCheckpointCorruptionQuarantine is the table test over every way a
// checkpoint file can be invalid: truncated tail, bad magic, flipped payload
// byte, version mismatch (a newer and the seven previous versions), a
// checksum-valid payload that does not fit the machine — caches of another
// size, whose record streams are not one canonical record per live way, or in
// a state no run reaches, a foreign prefetcher, core or TLB, ring
// cursors outside their rings, a missing predictor, a cursor past the plan —
// and a checksum-valid file for a different spec.
// Each must be quarantined under the *.corrupt convention and the run must
// restart from scratch, producing the reference result.
func TestCheckpointCorruptionQuarantine(t *testing.T) {
	spec := RunSpec{
		Workload: "mcf", Policy: core.PolicyAtCommit, SQSize: 14,
		Insts: 30_000, ModelBranchPredictor: true,
	}
	ref, err := Run(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	// The first boundary falls inside the only detailed segment, so the file
	// the rows rewrite carries core state as well as machine state.
	const cadence = 10_000

	// reseal recomputes the trailing digest so a mutation tests the check it
	// aims at rather than tripping the checksum first.
	reseal := func(data []byte) []byte {
		body := data[:len(data)-sha256.Size]
		sum := sha256.Sum256(body)
		return append(append([]byte{}, body...), sum[:]...)
	}

	// stamped rewrites the envelope's version and reseals: the file a binary
	// with that ckptVersion would have left behind, whose payload must never
	// be decoded into this one's structures.
	stamped := func(version uint32) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(data[len(ckptMagic):], version)
			if err := os.WriteFile(path, reseal(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-magic", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-checksum", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatch", stamped(ckptVersion + 1)},
		// The seven earlier formats (DESIGN.md §12 has the table): directory
		// shards and unordered miss lists; caches as tags, use stamps and a
		// clock; a Detailed or a Sampled payload; every snapshot a nested gob
		// stream of its own; every cache a dense line array with the free ways
		// stored as zero lines; every core its own TLB, predictor and clock;
		// every live line a 32-byte Line and every recent-eviction set dense.
		{"v1-envelope", stamped(1)},
		{"v2-envelope", stamped(2)},
		{"v3-envelope", stamped(3)},
		{"v4-envelope", stamped(4)},
		{"v5-envelope", stamped(5)},
		{"v6-envelope", stamped(6)},
		{"v7-envelope", stamped(7)},
		{"truncated-lines", rewrite(func(t *testing.T, cf *ckptFile) {
			// A well-formed, checksummed envelope for this very spec whose
			// L3 has half the machine's sets: Restore would panic on it, so
			// resume must refuse it first.
			small := config.Skylake()
			small.L3.SizeBytes /= 2
			sys := memsys.New(small, 1)
			cf.State.Sys = sys.Snapshot()
			sys.Release()
		})},
		// Checksummed payloads a binary with another core table or prefetcher
		// zoo would have written for this spec's key: every Restore below the
		// run would panic on them.
		{"foreign-prefetcher-kind", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.State.PF[0] = prefetch.CaptureState(prefetch.New(config.PrefetchBOP))
		})},
		{"tlb-of-another-geometry", rewrite(func(t *testing.T, cf *ckptFile) {
			cfg := config.Skylake().TLB
			cf.State.DTLBs[0] = tlb.New(tlb.Config{Entries: cfg.Entries / 2, Ways: cfg.Ways, WalkLat: cfg.WalkLat}).Snapshot()
		})},
		{"wrong-size-rob", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.Cores[0] = foreignCore(t)
		})},
		{"rob-head-past-ring", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.Cores[0].ROBHead = 1 << 20
		})},
		{"missing-predictor", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.State.BPs = nil
		})},
		{"machine-predictor-missing", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.State.BPs[0].BP = nil
		})},
		{"core-state-short", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.Seen = nil
		})},
		{"cursor-past-plan", rewrite(func(t *testing.T, cf *ckptFile) {
			cf.Cur.Seg, cf.Cores = 99, nil
		})},
		// Checksummed, right-sized payloads whose L1 is not what Snapshot
		// writes or names a state no run reaches; Restore would install a cache
		// whose lookups miss or alias. A record names no set — its position
		// does — so the one way it can name a block outside its set is a tag
		// that overflows when shifted back, which line-in-wrong-set writes.
		{"live-line-invalid", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records[1] = byte(cache.Invalid)
		}, "in state I")},
		{"line-in-wrong-set", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records = append(binary.AppendUvarint(nil, 1<<60), l1.Records[1:]...)
		}, "malformed")},
		{"duplicate-block", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records = append(l1.Records, l1.Records...)
			l1.Live[0] = 0b11
		}, "twice")},
		{"recency-not-an-order", corruptL1(func(l1 *cache.Snapshot) {
			l1.Rec[0] = 0x76543211
		}, "not an order")},
		{"live-bit-past-ways", corruptL1(func(l1 *cache.Snapshot) {
			l1.Live[0] |= 1 << 12
			l1.Records = append(l1.Records, 2, byte(cache.Shared), 0, 0, 0)
		}, "exceeds 8 ways")},
		{"record-truncated", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records[len(l1.Records)-1] |= 0x80
		}, "malformed")},
		{"varint-longer-than-its-value", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records = append([]byte{0x80, 0x00}, l1.Records[1:]...)
		}, "malformed")},
		// One record per live bit: a mask edited without its record, or a
		// stream cut short or run long, must be refused before anything is
		// decoded into the arena by it.
		{"live-bit-without-line", corruptL1(func(l1 *cache.Snapshot) {
			l1.Live[len(l1.Live)-1] ^= 1
		}, "live masks mark")},
		{"lines-cut-short", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records = nil
		}, "live masks mark")},
		{"records-run-past-live-ways", corruptL1(func(l1 *cache.Snapshot) {
			l1.Records = append(l1.Records, 1, byte(cache.Shared), 0, 0, 0)
		}, "live masks mark")},
		{"spec-mismatch", func(t *testing.T, path string) {
			// A perfectly valid checkpoint — for a different simulation
			// point. KeyOf maps both seeds to the same file name, so the
			// spec embedded in the payload is the only guard.
			other := spec
			other.Seed = 7
			otherPath := writeCrashCheckpoint(t, filepath.Dir(path), other, cadence)
			if otherPath != path {
				t.Fatalf("test setup: expected colliding path, got %s vs %s", otherPath, path)
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeCrashCheckpoint(t, dir, spec, cadence)
			tc.corrupt(t, path)

			r := NewRunner()
			r.SetCheckpointPolicy(ckptTestPolicy(dir, cadence, nil))
			got, err := r.Get(spec)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, ref, got, tc.name)

			st := r.SimStats()
			if st.CheckpointCorrupt != 1 {
				t.Errorf("CheckpointCorrupt = %d, want 1", st.CheckpointCorrupt)
			}
			if st.CheckpointResumes != 0 {
				t.Errorf("CheckpointResumes = %d, want 0 (must not resume from a bad file)", st.CheckpointResumes)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("quarantine file missing: %v", err)
			}
			// The from-scratch rerun completed, so no live checkpoint remains.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("checkpoint %s survived run completion (stat err: %v)", path, err)
			}
		})
	}
}

// TestCheckpointPolicyDoesNotPerturbStats pins the weaker but broader
// property the caches rely on: merely enabling checkpointing (no crash)
// leaves the result byte-identical, and the file is gone afterwards.
func TestCheckpointPolicyDoesNotPerturbStats(t *testing.T) {
	spec := RunSpec{
		Workload: "x264", CoreName: "SLM", Policy: core.PolicySPB, SQSize: 16,
		Insts: 30_000, WarmupInsts: 8_000,
	}
	ref, err := Run(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := NewRunner()
	r.SetCheckpointPolicy(ckptTestPolicy(dir, 6_000, nil))
	got, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, got, "checkpointing-on")
	if w := r.SimStats().CheckpointWrites; w == 0 {
		t.Error("no checkpoints were written — cadence never fired")
	}
	if _, err := os.Stat(filepath.Join(dir, spec.Workload+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("checkpoint survived run completion (stat err: %v)", err)
	}
}

// FuzzDecodeCkpt feeds the checkpoint decoder and the restore step arbitrary
// bytes and resealed mutations of a real file — one this binary writes, so of
// the current ckptVersion, its caches packed records. pos and flip name one
// payload byte to change before the checksum is recomputed, which is how a
// file from a binary with other ideas reaches them. Nothing may panic, every refusal
// must be errCkptInvalid, and a file a Runner accepts or quarantines must end
// in the from-scratch result. A resealed file whose values changed but still
// fit is, as far as any check can tell, a valid checkpoint of some other run:
// the SHA-256 is what protects values, so for those only the validation is
// exercised, not the simulation.
func FuzzDecodeCkpt(f *testing.F) {
	spec := RunSpec{
		Workload: "mcf", Policy: core.PolicySPB, SQSize: 14,
		Insts: 12_000, WarmupInsts: 2_000, ModelBranchPredictor: true,
	}.Normalized()
	ref, err := Run(spec)
	if err != nil {
		f.Fatal(err)
	}
	const cadence = 5_000
	r := NewRunner()
	r.SetCheckpointPolicy(ckptTestPolicy(f.TempDir(), cadence, func(string) error { return errCrash }))
	if _, err := r.Get(spec); !errors.Is(err, errCrash) {
		f.Fatalf("expected simulated crash, got %v", err)
	}
	file, err := os.ReadFile(r.checkpointerFor(spec).path)
	if err != nil {
		f.Fatal(err)
	}
	orig, err := decodeCkpt(file)
	if err != nil || orig.Cores == nil {
		f.Fatalf("the seed file must be a mid-segment checkpoint: %v", err)
	}
	hdr, payload := len(ckptMagic)+12, len(file)-len(ckptMagic)-12-sha256.Size

	f.Add([]byte{}, uint32(0), byte(0))
	f.Add([]byte(ckptMagic), uint32(0), byte(0))
	f.Add(file[:len(file)/2], uint32(0), byte(0))
	f.Add(file, uint32(0), byte(0)) // the file itself: must resume
	for _, pos := range []int{0, 3, 40, payload / 3, payload / 2, payload - 9, payload - 1} {
		f.Add(file, uint32(pos), byte(0xFF))
		f.Add([]byte{}, uint32(pos), byte(0x01))
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint32, flip byte) {
		mutated := append([]byte{}, file[:hdr+payload]...)
		mutated[hdr+int(pos)%payload] ^= flip
		sum := sha256.Sum256(mutated)
		for _, in := range [][]byte{data, append(mutated, sum[:]...)} {
			cf, err := decodeCkpt(in)
			if err != nil {
				if !errors.Is(err, errCkptInvalid) {
					t.Fatalf("decodeCkpt refused with %v, not errCkptInvalid", err)
				}
				continue
			}
			if cf.Spec == spec && !reflect.DeepEqual(cf, orig) {
				m, err := newMachine(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.restore(cf.State); err != nil {
					if !errors.Is(err, errCkptInvalid) {
						t.Fatalf("restore refused with %v, not errCkptInvalid", err)
					}
				} else if cf.Cores != nil {
					cores, _ := m.buildCores(1)
					_ = cf.fitsCores(cores) // any verdict, no panic
					for _, c := range cores {
						c.Release()
					}
				}
				m.release()
				continue
			}
			dir := t.TempDir()
			r := NewRunner()
			r.SetCheckpointPolicy(ckptTestPolicy(dir, cadence, nil))
			if err := os.WriteFile(r.checkpointerFor(spec).path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := r.Get(spec)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, ref, got, "fuzzed checkpoint")
			if st := r.SimStats(); st.CheckpointResumes+st.CheckpointCorrupt != 1 {
				t.Fatalf("the file was neither resumed from nor quarantined: %+v", st)
			}
		}
	})
}
