package prefetch

import (
	"fmt"

	"spb/internal/mem"
)

// Crash-safe checkpoint support (DESIGN.md §15). Warm-start snapshots
// deliberately exclude the generic prefetcher (functional warming never
// trains it), but a mid-run checkpoint interrupts fully-trained tables, so
// it must carry them. State is the exported, gob-friendly deep copy of any
// in-tree Prefetcher's mutable state.

// StreamEntryState is the wire form of one stride-detection slot.
type StreamEntryState struct {
	PC     uint64
	Last   mem.Block
	Stride int64
	Conf   int8
	Valid  bool
}

// BOPState is the wire form of the Best-Offset prefetcher's learning state.
type BOPState struct {
	RR        []mem.Block
	RRNext    int
	RRFilled  bool
	Scores    []uint8
	CandIdx   int
	Round     int
	Best      int32
	BestScore uint8
}

// DSPatchPageState is the wire form of one active-page buffer slot.
type DSPatchPageState struct {
	Page    mem.Page
	Sig     uint32
	Trigger int
	Bitmap  uint64
	Valid   bool
}

// DSPatchEntryState is the wire form of one dual-pattern table entry.
type DSPatchEntryState struct {
	CovP  uint64
	AccP  uint64
	Valid bool
}

// DSPatchState is the wire form of the DSPatch prefetcher's state.
type DSPatchState struct {
	Pages   []DSPatchPageState
	PageClk int
	Table   []DSPatchEntryState
	UseAcc  bool
}

// HybridState is the wire form of the hybrid arbiter: the nested states of
// its sub-prefetchers plus the attribution and allocation machinery.
type HybridState struct {
	Subs   []State
	Recent [][]mem.Block
	RNext  []int
	Issued []uint64
	Hits   []uint64
	Alloc  []int
}

// State is a deep copy of a prefetcher's mutable state. Kind names the
// concrete scheme; restoring onto a prefetcher of a different kind is a
// configuration mismatch and panics (checkpoints embed the spec, so a
// mismatch indicates a corrupt or mis-keyed checkpoint the caller should
// have rejected).
type State struct {
	Kind  string
	Table []StreamEntryState
	// Distance and Degree are the stream prefetcher's current
	// aggressiveness; for Adaptive they are re-derived from Level, but are
	// carried anyway so Stream restores without consulting the ladder.
	Distance int64
	Degree   int
	// Level is Adaptive's position on the aggressiveness ladder.
	Level int
	// Exactly one of the following is non-nil for the matching Kind.
	BOP     *BOPState
	DSPatch *DSPatchState
	Hybrid  *HybridState
}

// CaptureState deep-copies p's mutable state.
func CaptureState(p Prefetcher) State {
	switch v := p.(type) {
	case nonePrefetcher:
		return State{Kind: "none"}
	case *Adaptive:
		s := captureStream(&v.Stream)
		s.Kind = "adaptive"
		s.Level = v.level
		return s
	case *Stream:
		return captureStream(v)
	case *BOP:
		return State{Kind: "bop", BOP: &BOPState{
			RR:        append([]mem.Block(nil), v.rr...),
			RRNext:    v.rrNext,
			RRFilled:  v.rrFilled,
			Scores:    append([]uint8(nil), v.scores...),
			CandIdx:   v.candIdx,
			Round:     v.round,
			Best:      v.best,
			BestScore: v.bestScore,
		}}
	case *DSPatch:
		d := &DSPatchState{
			Pages:   make([]DSPatchPageState, len(v.pages)),
			PageClk: v.pageClk,
			Table:   make([]DSPatchEntryState, len(v.table)),
			UseAcc:  v.useAcc,
		}
		for i, pg := range v.pages {
			d.Pages[i] = DSPatchPageState{Page: pg.page, Sig: pg.sig, Trigger: pg.trigger, Bitmap: pg.bitmap, Valid: pg.valid}
		}
		for i, e := range v.table {
			d.Table[i] = DSPatchEntryState{CovP: e.covP, AccP: e.accP, Valid: e.valid}
		}
		return State{Kind: "dspatch", DSPatch: d}
	case *Hybrid:
		h := &HybridState{
			Subs:   make([]State, len(v.subs)),
			Recent: make([][]mem.Block, len(v.recent)),
			RNext:  append([]int(nil), v.rnext...),
			Issued: append([]uint64(nil), v.issued...),
			Hits:   append([]uint64(nil), v.hits...),
			Alloc:  append([]int(nil), v.alloc...),
		}
		for i, sub := range v.subs {
			h.Subs[i] = CaptureState(sub)
		}
		for i, r := range v.recent {
			h.Recent[i] = append([]mem.Block(nil), r...)
		}
		return State{Kind: "hybrid", Hybrid: h}
	}
	panic(fmt.Sprintf("prefetch: cannot capture state of %T", p))
}

func captureStream(v *Stream) State {
	s := State{
		Kind:     "stream",
		Table:    make([]StreamEntryState, len(v.table)),
		Distance: v.distance,
		Degree:   v.degree,
	}
	for i, e := range v.table {
		s.Table[i] = StreamEntryState{PC: e.pc, Last: e.last, Stride: e.stride, Conf: e.conf, Valid: e.valid}
	}
	return s
}

// Fits reports, as an error, why the state cannot be restored onto p: another
// kind of prefetcher, a missing payload, or tables of another geometry. A state
// captured from a prefetcher of the same configuration always fits; a decoded
// one (a checkpoint file) must be checked before RestoreState, which panics on
// a mismatch.
func (s State) Fits(p Prefetcher) error {
	kind, ok := "", false
	switch v := p.(type) {
	case nonePrefetcher:
		kind, ok = "none", true
	case *Adaptive:
		kind, ok = "adaptive", len(v.table) == len(s.Table)
	case *Stream:
		kind, ok = "stream", len(v.table) == len(s.Table)
	case *BOP:
		kind = "bop"
		b := s.BOP
		ok = b != nil && len(v.rr) == len(b.RR) && len(v.scores) == len(b.Scores) &&
			inRing(b.RRNext, len(b.RR)) && inRing(b.CandIdx, len(b.Scores))
	case *DSPatch:
		kind = "dspatch"
		d := s.DSPatch
		ok = d != nil && len(v.pages) == len(d.Pages) && len(v.table) == len(d.Table) && inRing(d.PageClk, len(d.Pages))
	case *Hybrid:
		kind = "hybrid"
		hs := s.Hybrid
		ok = hs != nil && len(v.subs) == len(hs.Subs) && len(v.recent) == len(hs.Recent) &&
			len(v.rnext) == len(hs.RNext) && len(v.issued) == len(hs.Issued) &&
			len(v.hits) == len(hs.Hits) && len(v.alloc) == len(hs.Alloc)
		for i := 0; ok && i < len(v.subs); i++ {
			if err := hs.Subs[i].Fits(v.subs[i]); err != nil {
				return err
			}
			ok = len(v.recent[i]) == len(hs.Recent[i]) && inRing(hs.RNext[i], len(hs.Recent[i]))
		}
	default:
		return fmt.Errorf("prefetch: cannot restore state onto %T", p)
	}
	if s.Kind != kind {
		return fmt.Errorf("prefetch: state of kind %q does not fit a %s prefetcher", s.Kind, kind)
	}
	if !ok {
		return fmt.Errorf("prefetch: %s state is incomplete or of another table geometry", kind)
	}
	return nil
}

// inRing reports whether a ring cursor points inside a ring of n slots.
func inRing(i, n int) bool { return i >= 0 && i < n }

// RestoreState overwrites p's mutable state with the capture's. p must be
// the same kind (and table geometry) the state was captured from.
func RestoreState(p Prefetcher, s State) {
	if err := s.Fits(p); err != nil {
		panic(err)
	}
	switch v := p.(type) {
	case *Adaptive:
		restoreStream(&v.Stream, s)
		v.level = s.Level
	case *Stream:
		restoreStream(v, s)
	case *BOP:
		copy(v.rr, s.BOP.RR)
		v.rrNext = s.BOP.RRNext
		v.rrFilled = s.BOP.RRFilled
		copy(v.scores, s.BOP.Scores)
		v.candIdx = s.BOP.CandIdx
		v.round = s.BOP.Round
		v.best = s.BOP.Best
		v.bestScore = s.BOP.BestScore
	case *DSPatch:
		for i, pg := range s.DSPatch.Pages {
			v.pages[i] = dspPage{page: pg.Page, sig: pg.Sig, trigger: pg.Trigger, bitmap: pg.Bitmap, valid: pg.Valid}
		}
		v.pageClk = s.DSPatch.PageClk
		for i, e := range s.DSPatch.Table {
			v.table[i] = dspEntry{covP: e.CovP, accP: e.AccP, valid: e.Valid}
		}
		v.useAcc = s.DSPatch.UseAcc
	case *Hybrid:
		hs := s.Hybrid
		for i, sub := range v.subs {
			RestoreState(sub, hs.Subs[i])
		}
		for i, r := range hs.Recent {
			copy(v.recent[i], r)
		}
		copy(v.rnext, hs.RNext)
		copy(v.issued, hs.Issued)
		copy(v.hits, hs.Hits)
		copy(v.alloc, hs.Alloc)
	}
}

func restoreStream(v *Stream, s State) {
	for i, e := range s.Table {
		v.table[i] = streamEntry{pc: e.PC, last: e.Last, stride: e.Stride, conf: e.Conf, valid: e.Valid}
	}
	v.distance = s.Distance
	v.degree = s.Degree
}
