package prefetch

import (
	"fmt"

	"spb/internal/mem"
)

// Crash-safe checkpoint support (DESIGN.md §12). Warm-start snapshots
// deliberately exclude the generic prefetcher (functional warming never
// trains it), but a mid-run checkpoint interrupts fully-trained tables, so
// it must carry them. State is the deep copy of any in-tree Prefetcher's
// mutable state, and its own gob form in a checkpoint file.

// BOPState is the Best-Offset prefetcher's learning state.
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

// DSPatchState is the DSPatch prefetcher's state.
type DSPatchState struct {
	Pages   []dspPage
	PageClk int
	Table   []dspEntry
	UseAcc  bool
}

// HybridState is the hybrid arbiter's state: the nested states of its
// sub-prefetchers plus the attribution and allocation machinery.
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
	Table []streamEntry
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
		return State{Kind: "dspatch", DSPatch: &DSPatchState{
			Pages:   append([]dspPage(nil), v.pages...),
			PageClk: v.pageClk,
			Table:   append([]dspEntry(nil), v.table...),
			UseAcc:  v.useAcc,
		}}
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
	return State{
		Kind:     "stream",
		Table:    append([]streamEntry(nil), v.table...),
		Distance: v.distance,
		Degree:   v.degree,
	}
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
		copy(v.pages, s.DSPatch.Pages)
		v.pageClk = s.DSPatch.PageClk
		copy(v.table, s.DSPatch.Table)
		v.useAcc = s.DSPatch.UseAcc
	case *Hybrid:
		hs := s.Hybrid
		for i, sub := range v.subs {
			RestoreState(sub, hs.Subs[i])
		}
		for i, r := range hs.Recent {
			copy(v.recent[i], r)
		}
		v.refilter()
		copy(v.rnext, hs.RNext)
		copy(v.issued, hs.Issued)
		copy(v.hits, hs.Hits)
		copy(v.alloc, hs.Alloc)
	}
}

func restoreStream(v *Stream, s State) {
	copy(v.table, s.Table)
	v.distance = s.Distance
	v.degree = s.Degree
}
