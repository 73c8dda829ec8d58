package storebuf

import (
	"fmt"

	"spb/internal/pool"
)

// Warm-start support (DESIGN.md §12): deep snapshot/restore of the store
// buffer and a pool for the entry ring so repeated Runner invocations stop
// allocating it.

// Snapshot is a deep copy of a store buffer's mutable state, and its own gob
// form in a checkpoint file (DESIGN.md §12).
type Snapshot struct {
	Entries  []Entry
	HeadSeq  uint64
	TailSeq  uint64
	Seniors  int
	MaxOcc   int
	Merged   uint64
	BlockCnt [sbFilterSize]uint16
}

// Snapshot deep-copies the store buffer's mutable state.
func (sb *StoreBuffer) Snapshot() *Snapshot {
	return &Snapshot{
		Entries:  append([]Entry(nil), sb.entries...),
		HeadSeq:  sb.headSeq,
		TailSeq:  sb.tailSeq,
		Seniors:  sb.seniors,
		MaxOcc:   sb.MaxOccupancy,
		Merged:   sb.Coalesced,
		BlockCnt: sb.blockCnt,
	}
}

// Fits reports, as an error, why the snapshot cannot be restored into sb: a
// ring of another capacity, or sequence numbers that describe more entries (or
// more senior ones) than it holds. A snapshot taken from a buffer of the same
// capacity always fits; a decoded one (a checkpoint file) must be checked
// before Restore, which panics on a mismatch.
func (s *Snapshot) Fits(sb *StoreBuffer) error {
	if s == nil || len(s.Entries) != len(sb.entries) {
		return fmt.Errorf("storebuf: snapshot does not have the buffer's %d entries", len(sb.entries))
	}
	if n := s.TailSeq - s.HeadSeq; s.TailSeq < s.HeadSeq || n > uint64(len(s.Entries)) || s.Seniors < 0 || uint64(s.Seniors) > n {
		return fmt.Errorf("storebuf: snapshot sequence numbers [%d, %d) with %d seniors do not fit %d entries",
			s.HeadSeq, s.TailSeq, s.Seniors, len(s.Entries))
	}
	return nil
}

// Restore overwrites the store buffer's mutable state with the snapshot's.
// The buffer must have the capacity of the snapshot's source.
func (sb *StoreBuffer) Restore(s *Snapshot) {
	if err := s.Fits(sb); err != nil {
		panic(err)
	}
	copy(sb.entries, s.Entries)
	sb.headSeq = s.HeadSeq
	sb.tailSeq = s.TailSeq
	sb.seniors = s.Seniors
	sb.MaxOccupancy = s.MaxOcc
	sb.Coalesced = s.Merged
	sb.blockCnt = s.BlockCnt
}

var bufPool pool.Keyed[int, *StoreBuffer] // by capacity

// Release hands the buffer — its entry ring and its 8 KB forward filter — to
// the next New of the same capacity. The buffer must not be used afterwards;
// skipping Release is always safe.
func (sb *StoreBuffer) Release() {
	if n := sb.capacity; n > 0 {
		sb.capacity = 0
		bufPool.Put(n, sb)
	}
}
