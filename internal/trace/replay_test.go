package trace_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"spb/internal/mem"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// recordLawInsts is how much of each stream the record → replay law records.
const recordLawInsts = 10_000

// shippedStreams returns a fresh copy of every stream a shipped workload
// builds: each SPEC workload at seed 1, and each of the eight thread streams of
// each PARSEC workload at seed 1.
func shippedStreams() (names []string, streams []*trace.Program) {
	for _, w := range workloads.SPEC() {
		names, streams = append(names, w.Name), append(streams, w.Build(1))
	}
	for _, p := range workloads.PARSEC() {
		for i, r := range p.Build(1, 8) {
			names, streams = append(names, fmt.Sprintf("%s/%d", p.Name, i)), append(streams, r)
		}
	}
	return names, streams
}

// TestRecordReplayLaw: a replay leaf over n recorded instructions of a stream
// is that stream for those n instructions. Under one random script of Next,
// Skip, SkipTouch, Warm and Clone, the source and its replay stand at the same
// instruction after every step, Warm reports the same accesses, and
// SkipTouch covers the same blocks of each kind. program_test.go checks
// the same law on every FuzzLeafWrittenOnce input.
func TestRecordReplayLaw(t *testing.T) {
	names, sources := shippedStreams()
	for i, name := range names {
		var buf bytes.Buffer
		if n, err := trace.WriteTrace(&buf, sources[i].Clone(), recordLawInsts); err != nil || n != recordLawInsts {
			t.Fatalf("%s: recorded %d instructions (err %v), want %d", name, n, err, recordLawInsts)
		}
		recs, err := trace.OpenTrace(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		replay := trace.NewProgram(trace.NewRNG(1), trace.Phase{Weight: 1, Leaves: []trace.Leaf{{Op: trace.OpReplay, Records: recs}}})
		followScript(t, name, sources[i], replay, trace.NewRNG(uint64(i)), recordLawInsts)
	}
}

// followScript drives a and b through the same random script over their next
// n instructions and fails at the first step after which they differ.
func followScript(t *testing.T, name string, a, b *trace.Program, rng *trace.RNG, n int) {
	t.Helper()
	next := func(p *trace.Program, k int) []trace.Inst { return trace.Collect(p, k) }
	type touched struct {
		block mem.Block
		store bool
	}
	type event struct {
		pc    uint64
		addr  mem.Addr
		store bool
	}
	for at := 0; at < n; {
		k := min(n-at, 1+rng.Intn(64)<<rng.Intn(7))
		switch rng.Intn(6) {
		case 0:
			if got, want := next(b, k), next(a, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Next of %d at %d differs", name, k, at)
			}
		case 1:
			a.Skip(uint64(k))
			b.Skip(uint64(k))
		case 2:
			var sets [2]map[touched]bool
			for j, p := range []*trace.Program{a, b} {
				sets[j] = map[touched]bool{}
				p.SkipTouch(uint64(k), func(addr mem.Addr, size uint64, store bool) {
					for blk := mem.BlockOf(addr); blk <= mem.BlockOf(addr+mem.Addr(size-1)); blk++ {
						sets[j][touched{blk, store}] = true
					}
				})
			}
			if len(sets[0]) != len(sets[1]) {
				t.Fatalf("%s: SkipTouch of %d at %d touches %d blocks, its replay %d", name, k, at, len(sets[0]), len(sets[1]))
			}
			for blk := range sets[1] {
				if !sets[0][blk] {
					t.Fatalf("%s: SkipTouch of %d at %d: the replay touches %+v, the source does not", name, k, at, blk)
				}
			}
		case 3, 4:
			var events [2][]event
			for j, p := range []*trace.Program{a, b} {
				p.Warm(uint64(k), func(pc uint64, addr mem.Addr, store bool) {
					events[j] = append(events[j], event{pc: pc, addr: addr, store: store})
				})
			}
			if !slices.Equal(events[0], events[1]) {
				t.Fatalf("%s: Warm of %d at %d reports %d events, its replay %d, or other ones", name, k, at, len(events[0]), len(events[1]))
			}
		case 5:
			// The clones go on from here; the originals, run on first, must
			// not have moved them.
			ca, cb := a.Clone(), b.Clone()
			want := next(a, k)
			if !slices.Equal(next(b, k), want) || !slices.Equal(next(ca, k), want) || !slices.Equal(next(cb, k), want) {
				t.Fatalf("%s: a Clone taken at %d differs within %d", name, at, k)
			}
			a, b = ca, cb
		}
		at += k
		if at < n {
			if got, want := next(b, 1), next(a, 1); !slices.Equal(got, want) {
				t.Fatalf("%s: after a step to %d the replay emits %+v, the source %+v", name, at, got, want)
			}
			at++
		}
	}
}
