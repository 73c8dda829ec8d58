package prefetch

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"spb/internal/config"
	"spb/internal/mem"
)

// driveState replays a deterministic mixed-stride access pattern (three
// interleaved streams, periodic feedback epochs) and returns every prefetch
// issued, so two prefetchers can be compared for behavioral equality.
func driveState(p Prefetcher, phase, n int) []mem.Block {
	var all, out []mem.Block
	for i := 0; i < n; i++ {
		j := phase + i
		stream := j % 3
		blk := mem.Block(stream<<14 + (j/3)*(stream+1))
		out = p.Observe(Event{
			PC:    uint64(0x400000 + stream*8),
			Block: blk,
			Miss:  j%4 != 0,
			Store: stream == 1,
		}, out[:0])
		all = append(all, out...)
		if j%257 == 256 {
			p.Epoch(Feedback{Issued: 100, Used: uint64(20 + 25*stream), Late: 12, Polluted: 3})
		}
	}
	return all
}

// TestCaptureRestoreEquivalence checkpoints every kind mid-stream through a
// gob round trip (the checkpoint wire format) and checks the restored copy
// behaves identically on the continuation.
func TestCaptureRestoreEquivalence(t *testing.T) {
	for _, k := range config.Prefetchers {
		t.Run(k.String(), func(t *testing.T) {
			a := New(k)
			driveState(a, 0, 1200)
			st := CaptureState(a)

			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			var dec State
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&dec); err != nil {
				t.Fatalf("gob decode: %v", err)
			}

			b := New(k)
			RestoreState(b, dec)
			gotA := driveState(a, 1200, 900)
			gotB := driveState(b, 1200, 900)
			if len(gotA) != len(gotB) {
				t.Fatalf("continuations diverge: %d vs %d prefetches", len(gotA), len(gotB))
			}
			for i := range gotA {
				if gotA[i] != gotB[i] {
					t.Fatalf("continuations diverge at prefetch %d: %d vs %d", i, gotA[i], gotB[i])
				}
			}
		})
	}
}

// TestCaptureStateKinds pins the Kind discriminator each constructor
// captures as, which the checkpoint format depends on.
func TestCaptureStateKinds(t *testing.T) {
	want := map[config.PrefetcherKind]string{
		config.PrefetchStream:     "stream",
		config.PrefetchAggressive: "stream",
		config.PrefetchAdaptive:   "adaptive",
		config.PrefetchNone:       "none",
		config.PrefetchBOP:        "bop",
		config.PrefetchDSPatch:    "dspatch",
		config.PrefetchHybrid:     "hybrid",
	}
	for _, k := range config.Prefetchers {
		if _, ok := New(k).(stateful); !ok {
			t.Fatalf("New(%v) returns a %T, which cannot capture, check and restore its own state (stateful)", k, New(k))
		}
		if got := CaptureState(New(k)).Kind; got != want[k] {
			t.Fatalf("CaptureState(%v).Kind = %q, want %q", k, got, want[k])
		}
	}
}

// TestAdaptiveLevelOffTheLadderDoesNotFit: a decoded state whose level would
// index past the aggressiveness ladder at the next epoch is refused.
func TestAdaptiveLevelOffTheLadderDoesNotFit(t *testing.T) {
	a := NewAdaptive()
	st := CaptureState(a)
	for _, level := range []int{0, -1, len(aggressivenessLadder) + 1} {
		st.Level = level
		if st.Fits(a) == nil {
			t.Fatalf("a state at level %d fits an adaptive prefetcher", level)
		}
	}
}

func TestRestoreStateKindMismatchPanics(t *testing.T) {
	cases := []struct {
		p  Prefetcher
		st State
	}{
		{New(config.PrefetchBOP), State{Kind: "stream"}},
		{New(config.PrefetchDSPatch), State{Kind: "bop"}},
		{New(config.PrefetchHybrid), State{Kind: "dspatch"}},
		{New(config.PrefetchStream), State{Kind: "hybrid"}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RestoreState(%s, %q) must panic", c.p.Name(), c.st.Kind)
				}
			}()
			RestoreState(c.p, c.st)
		}()
	}
}

// TestHybridRestorePreservesAttribution checks the arbiter's rings,
// counters and allocation survive a round trip — mid-epoch credit must keep
// accruing identically after a restore, down to deep-equal captured state.
func TestHybridRestorePreservesAttribution(t *testing.T) {
	h := NewHybridOf(NewStream(2, 1), NewBOP())
	var out []mem.Block
	for i := 0; i < 100; i++ {
		out = h.Observe(Event{PC: 0x400000, Block: mem.Block(1000 + i), Miss: true}, out[:0])
	}
	st := CaptureState(h)
	h2 := NewHybridOf(NewStream(2, 1), NewBOP())
	RestoreState(h2, st)
	for i := 100; i < 300; i++ {
		out = h.Observe(Event{PC: 0x400000, Block: mem.Block(1000 + i), Miss: true}, out[:0])
		out = h2.Observe(Event{PC: 0x400000, Block: mem.Block(1000 + i), Miss: true}, out[:0])
	}
	h.Epoch(Feedback{})
	h2.Epoch(Feedback{})
	if !reflect.DeepEqual(CaptureState(h), CaptureState(h2)) {
		t.Fatalf("hybrid state diverges after restore:\n%+v\nvs\n%+v", CaptureState(h), CaptureState(h2))
	}
}
