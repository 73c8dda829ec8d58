package prefetch

import (
	"fmt"

	"spb/internal/mem"
)

// Crash-safe checkpoint support (DESIGN.md §12). Warm-start snapshots
// deliberately exclude the generic prefetcher (functional warming never
// trains it), but a mid-run checkpoint interrupts fully-trained tables, so
// it must carry them. State is the deep copy of any in-tree Prefetcher's
// mutable state, and its own gob form in a checkpoint file. Each kind copies,
// checks and restores its own fields, in its own file (stateful).

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
// concrete scheme (its Name); restoring onto a prefetcher of a different kind
// is a configuration mismatch and panics (checkpoints embed the spec, so a
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

// stateful is the checkpoint side of an in-tree prefetcher: every kind New
// returns implements it beside the fields it copies.
type stateful interface {
	Prefetcher
	// capture deep-copies the mutable state; CaptureState stamps the Kind.
	capture() State
	// fits reports whether s, already known to be of this kind, carries the
	// kind's payload at this prefetcher's table geometry.
	fits(s State) bool
	// restore overwrites the mutable state with s, which fits.
	restore(s State)
}

// CaptureState deep-copies p's mutable state.
func CaptureState(p Prefetcher) State {
	sp, ok := p.(stateful)
	if !ok {
		panic(fmt.Sprintf("prefetch: cannot capture state of %T", p))
	}
	s := sp.capture()
	s.Kind = p.Name()
	return s
}

// Fits reports, as an error, why the state cannot be restored onto p: another
// kind of prefetcher, a missing payload, or tables of another geometry. A state
// captured from a prefetcher of the same configuration always fits; a decoded
// one (a checkpoint file) must be checked before RestoreState, which panics on
// a mismatch.
func (s State) Fits(p Prefetcher) error {
	sp, ok := p.(stateful)
	switch {
	case !ok:
		return fmt.Errorf("prefetch: cannot restore state onto %T", p)
	case s.Kind != p.Name():
		return fmt.Errorf("prefetch: state of kind %q does not fit a %s prefetcher", s.Kind, p.Name())
	case !sp.fits(s):
		return fmt.Errorf("prefetch: %s state is incomplete or of another table geometry", s.Kind)
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
	p.(stateful).restore(s)
}
