package cpu

import (
	"fmt"

	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/pool"
	"spb/internal/storebuf"
	"spb/internal/trace"
)

// Warm-start support (DESIGN.md §12): deep snapshot/restore of a core's
// pipeline state, Release of its pooled arrays, and the pools themselves
// (ROB ring and occupancy-tracker buckets) so repeated Runner invocations
// stop allocating them.
//
// A snapshot covers everything the core owns — pipeline registers, ROB,
// occupancy trackers, RNG, store buffer, detector and statistics, the clock
// among them. It does NOT cover what the core borrows from its machine: the
// trace reader (cloned separately via trace.Program.Clone), the memory port
// (snapshotted by memsys.System), the TLB and the branch predictor.

// occSnapshot deep-copies an occHeap.
type occSnapshot struct {
	Buckets []uint16
	Cursor  uint64
	Count   int
	Far     []uint64
}

func (h *occHeap) snapshot() occSnapshot {
	s := occSnapshot{Cursor: h.cursor, Count: h.count}
	if h.buckets != nil {
		s.Buckets = append([]uint16(nil), h.buckets...)
	}
	if len(h.far) > 0 {
		s.Far = append([]uint64(nil), h.far...)
	}
	return s
}

// restore rebuilds the occupied-bucket bits from the buckets: they are derived
// state and not part of a snapshot.
func (h *occHeap) restore(s occSnapshot) {
	if h.buckets == nil && s.Buckets != nil {
		h.buckets = newOccBuckets()
	}
	clear(h.buckets)
	copy(h.buckets, s.Buckets)
	h.occ = [occWindow / 64]uint64{}
	for i, n := range h.buckets {
		if n != 0 {
			h.occ[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	h.cursor = s.Cursor
	h.count = s.Count
	h.far = append(h.far[:0], s.Far...)
}

// Snapshot is a deep copy of a core's mutable state, and its own gob form in
// a checkpoint file (DESIGN.md §12). The RNG travels as its xorshift state
// word.
type Snapshot struct {
	FetchReadyAt uint64
	Pending      trace.Inst
	HavePending  bool
	TraceDone    bool

	ROB      []robEntry
	ROBHead  int
	ROBTail  int
	ROBCount int

	DoneHist [256]uint64
	Seq      uint64

	IQ, LQ occSnapshot

	HeadAcquired bool
	HeadSeq      uint64
	HeadReadyAt  uint64
	HeadRetries  int

	LastLoadAddr  mem.Addr
	LastStoreAddr mem.Addr

	RNGState uint64
	St       Stats

	SB     *storebuf.Snapshot
	Det    core.DetectorSnapshot
	HasDet bool // Det valid
}

// Snapshot deep-copies the core's mutable state (excluding the trace reader
// and the memory port; see the file comment).
func (c *Core) Snapshot() *Snapshot {
	s := &Snapshot{
		FetchReadyAt:  c.fetchReadyAt,
		Pending:       c.pending,
		HavePending:   c.havePending,
		TraceDone:     c.traceDone,
		ROB:           append([]robEntry(nil), c.rob...),
		ROBHead:       c.robHead,
		ROBTail:       c.robTail,
		ROBCount:      c.robCount,
		DoneHist:      c.doneHist,
		Seq:           c.seq,
		IQ:            c.iq.snapshot(),
		LQ:            c.lq.snapshot(),
		HeadAcquired:  c.headAcquired,
		HeadSeq:       c.headSeq,
		HeadReadyAt:   c.headReadyAt,
		HeadRetries:   c.headRetries,
		LastLoadAddr:  c.lastLoadAddr,
		LastStoreAddr: c.lastStoreAddr,
		RNGState:      c.rng.State(),
		St:            c.St,
		SB:            c.sb.Snapshot(),
	}
	if c.det != nil {
		s.Det = c.det.Snapshot()
		s.HasDet = true
	}
	return s
}

// fits reports whether the tracker's ring is absent or the one size every
// tracker uses.
func (s occSnapshot) fits() bool {
	return (len(s.Buckets) == 0 || len(s.Buckets) == occWindow) && s.Count >= 0
}

// Fits reports, as an error, why the snapshot cannot be restored into c: a ROB
// or store buffer of another size, a detector the core's configuration does
// not have (or lacks), ROB ring indices outside the ring. A snapshot taken
// from a core of the same configuration always fits; a decoded one (a
// checkpoint file) must be checked before Restore, which panics on a mismatch.
func (s *Snapshot) Fits(c *Core) error {
	if s == nil || len(s.ROB) != len(c.rob) {
		return fmt.Errorf("cpu: snapshot does not have the core's %d-entry ROB", len(c.rob))
	}
	if n := len(s.ROB); s.ROBHead < 0 || s.ROBHead >= n || s.ROBCount < 0 || s.ROBCount > n ||
		s.ROBTail != (s.ROBHead+s.ROBCount)%n {
		return fmt.Errorf("cpu: snapshot ROB indices (head %d, tail %d, count %d) outside a %d-entry ring",
			s.ROBHead, s.ROBTail, s.ROBCount, n)
	}
	if (c.det != nil) != s.HasDet {
		return fmt.Errorf("cpu: snapshot detector presence differs from the core's")
	}
	if !s.IQ.fits() || !s.LQ.fits() {
		return fmt.Errorf("cpu: snapshot occupancy tracker is not %d cycles wide", occWindow)
	}
	return s.SB.Fits(c.sb)
}

// Restore overwrites the core's mutable state with the snapshot's. The core
// must have the same configuration (ROB size, SQ size, policy) as the
// snapshot's source.
func (c *Core) Restore(s *Snapshot) {
	if err := s.Fits(c); err != nil {
		panic(err)
	}
	c.fetchReadyAt = s.FetchReadyAt
	c.pending = s.Pending
	c.havePending = s.HavePending
	c.traceDone = s.TraceDone
	copy(c.rob, s.ROB)
	c.robHead = s.ROBHead
	c.robTail = s.ROBTail
	c.robCount = s.ROBCount
	c.doneHist = s.DoneHist
	c.seq = s.Seq
	c.iq.restore(s.IQ)
	c.lq.restore(s.LQ)
	c.headAcquired = s.HeadAcquired
	c.headSeq = s.HeadSeq
	c.headReadyAt = s.HeadReadyAt
	c.headRetries = s.HeadRetries
	c.lastLoadAddr = s.LastLoadAddr
	c.lastStoreAddr = s.LastStoreAddr
	c.rng.SetState(s.RNGState)
	c.St = s.St
	c.sb.Restore(s.SB)
	if c.det != nil {
		c.det.Restore(s.Det)
	}
}

var (
	robPool    pool.Keyed[int, []robEntry] // by ROB size
	bucketPool pool.Keyed[int, []uint16]   // occupancy bucket rings, by length
)

// newROB returns a ROB ring of the given size, reusing a released one when
// available. Ring slots are written at dispatch before commit ever reads
// them, so no zeroing is needed.
func newROB(n int) []robEntry {
	if rob, ok := robPool.Get(n); ok {
		return rob
	}
	return make([]robEntry, n)
}

// newOccBuckets returns a zeroed occWindow-sized bucket ring, reusing a
// released one when available.
func newOccBuckets() []uint16 {
	if b, ok := bucketPool.Get(occWindow); ok {
		clear(b)
		return b
	}
	return make([]uint16, occWindow)
}

// release returns the bucket ring to the shared pool.
func (h *occHeap) release() {
	if h.buckets == nil {
		return
	}
	bucketPool.Put(len(h.buckets), h.buckets)
	h.buckets = nil
}

// Release returns the core's pooled arrays — ROB ring, occupancy buckets and
// store-buffer ring — to their shared pools; what it borrowed, its machine
// releases. The core must not be used afterwards; skipping Release is always
// safe.
func (c *Core) Release() {
	if c.rob != nil {
		robPool.Put(len(c.rob), c.rob)
		c.rob = nil
	}
	c.iq.release()
	c.lq.release()
	c.sb.Release()
}
