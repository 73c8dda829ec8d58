package cpu

import (
	"fmt"
	"sync"

	"spb/internal/bpred"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/storebuf"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// Warm-start support (DESIGN.md §12): deep snapshot/restore of a core's
// pipeline state, Release of its pooled arrays, and the pools themselves
// (ROB ring and occupancy-tracker buckets) so repeated Runner invocations
// stop allocating them.
//
// A snapshot covers everything the core owns — pipeline registers, ROB,
// occupancy trackers, RNG, store buffer, detector, TLB, branch predictor and
// statistics. It does NOT cover the trace reader (cloned separately via
// trace.Program.Clone) or the memory port (snapshotted by memsys.System).

// occSnapshot deep-copies an occHeap.
type occSnapshot struct {
	buckets []uint16
	cursor  uint64
	count   int
	far     []uint64
}

func (h *occHeap) snapshot() occSnapshot {
	s := occSnapshot{cursor: h.cursor, count: h.count}
	if h.buckets != nil {
		s.buckets = append([]uint16(nil), h.buckets...)
	}
	if len(h.far) > 0 {
		s.far = append([]uint64(nil), h.far...)
	}
	return s
}

// restore rebuilds the occupied-bucket bits from the buckets: they are derived
// state and not part of a snapshot.
func (h *occHeap) restore(s occSnapshot) {
	if h.buckets == nil && s.buckets != nil {
		h.buckets = newOccBuckets()
	}
	clear(h.buckets)
	copy(h.buckets, s.buckets)
	h.occ = [occWindow / 64]uint64{}
	for i, n := range h.buckets {
		if n != 0 {
			h.occ[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	h.cursor = s.cursor
	h.count = s.count
	h.far = append(h.far[:0], s.far...)
}

// Snapshot is a deep copy of a core's mutable state.
type Snapshot struct {
	cycle uint64

	fetchReadyAt uint64
	pending      trace.Inst
	havePending  bool
	traceDone    bool

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	doneHist [256]uint64
	seq      uint64

	iq, lq occSnapshot

	headAcquired bool
	headSeq      uint64
	headReadyAt  uint64
	headRetries  int

	lastLoadAddr  mem.Addr
	lastStoreAddr mem.Addr

	rng trace.RNG
	st  Stats

	sb   *storebuf.Snapshot
	det  core.DetectorSnapshot
	has  bool // det valid
	dtlb *tlb.Snapshot
	bp   *bpred.Snapshot
}

// Snapshot deep-copies the core's mutable state (excluding the trace reader
// and the memory port; see the file comment).
func (c *Core) Snapshot() *Snapshot {
	s := &Snapshot{
		cycle:         c.cycle,
		fetchReadyAt:  c.fetchReadyAt,
		pending:       c.pending,
		havePending:   c.havePending,
		traceDone:     c.traceDone,
		rob:           append([]robEntry(nil), c.rob...),
		robHead:       c.robHead,
		robTail:       c.robTail,
		robCount:      c.robCount,
		doneHist:      c.doneHist,
		seq:           c.seq,
		iq:            c.iq.snapshot(),
		lq:            c.lq.snapshot(),
		headAcquired:  c.headAcquired,
		headSeq:       c.headSeq,
		headReadyAt:   c.headReadyAt,
		headRetries:   c.headRetries,
		lastLoadAddr:  c.lastLoadAddr,
		lastStoreAddr: c.lastStoreAddr,
		rng:           *c.rng,
		st:            c.St,
		sb:            c.sb.Snapshot(),
		dtlb:          c.dtlb.Snapshot(),
	}
	if c.det != nil {
		s.det = c.det.Snapshot()
		s.has = true
	}
	if c.bp != nil {
		s.bp = c.bp.Snapshot()
	}
	return s
}

// fits reports whether the tracker's ring is absent or the one size every
// tracker uses.
func (s occSnapshot) fits() bool {
	return (len(s.buckets) == 0 || len(s.buckets) == occWindow) && s.count >= 0
}

// Fits reports, as an error, why the snapshot cannot be restored into c: a ROB,
// store buffer, TLB or predictor of another size, a detector or predictor the
// core's configuration does not have (or lacks), ROB ring indices outside the
// ring. A snapshot taken from a core of the same configuration always fits; a
// decoded one (a checkpoint file) must be checked before Restore, which panics
// on a mismatch.
func (s *Snapshot) Fits(c *Core) error {
	if s == nil || len(s.rob) != len(c.rob) {
		return fmt.Errorf("cpu: snapshot does not have the core's %d-entry ROB", len(c.rob))
	}
	if n := len(s.rob); s.robHead < 0 || s.robHead >= n || s.robCount < 0 || s.robCount > n ||
		s.robTail != (s.robHead+s.robCount)%n {
		return fmt.Errorf("cpu: snapshot ROB indices (head %d, tail %d, count %d) outside a %d-entry ring",
			s.robHead, s.robTail, s.robCount, n)
	}
	if (c.det != nil) != s.has || (c.bp != nil) != (s.bp != nil) {
		return fmt.Errorf("cpu: snapshot detector/predictor presence differs from the core's")
	}
	if !s.iq.fits() || !s.lq.fits() {
		return fmt.Errorf("cpu: snapshot occupancy tracker is not %d cycles wide", occWindow)
	}
	if err := s.sb.Fits(c.sb); err != nil {
		return err
	}
	if err := s.dtlb.Fits(c.dtlb); err != nil {
		return err
	}
	if c.bp != nil {
		return s.bp.Fits(c.bp)
	}
	return nil
}

// Restore overwrites the core's mutable state with the snapshot's. The core
// must have the same configuration (ROB size, SQ size, TLB/predictor
// geometry, policy) as the snapshot's source.
func (c *Core) Restore(s *Snapshot) {
	if err := s.Fits(c); err != nil {
		panic(err)
	}
	c.cycle = s.cycle
	c.fetchReadyAt = s.fetchReadyAt
	c.pending = s.pending
	c.havePending = s.havePending
	c.traceDone = s.traceDone
	copy(c.rob, s.rob)
	c.robHead = s.robHead
	c.robTail = s.robTail
	c.robCount = s.robCount
	c.doneHist = s.doneHist
	c.seq = s.seq
	c.iq.restore(s.iq)
	c.lq.restore(s.lq)
	c.headAcquired = s.headAcquired
	c.headSeq = s.headSeq
	c.headReadyAt = s.headReadyAt
	c.headRetries = s.headRetries
	c.lastLoadAddr = s.lastLoadAddr
	c.lastStoreAddr = s.lastStoreAddr
	*c.rng = s.rng
	c.St = s.st
	c.sb.Restore(s.sb)
	c.dtlb.Restore(s.dtlb)
	if c.det != nil {
		c.det.Restore(s.det)
	}
	if c.bp != nil {
		c.bp.Restore(s.bp)
	}
}

var robPools sync.Map // ROB size -> *sync.Pool of []robEntry

func robPoolFor(n int) *sync.Pool {
	if p, ok := robPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := robPools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// newROB returns a ROB ring of the given size, reusing a released one when
// available. Ring slots are written at dispatch before commit ever reads
// them, so no zeroing is needed.
func newROB(n int) []robEntry {
	if v := robPoolFor(n).Get(); v != nil {
		return v.([]robEntry)
	}
	return make([]robEntry, n)
}

var occBucketPool = sync.Pool{}

// newOccBuckets returns a zeroed occWindow-sized bucket ring, reusing a
// released one when available.
func newOccBuckets() []uint16 {
	if v := occBucketPool.Get(); v != nil {
		b := v.([]uint16)
		for i := range b {
			b[i] = 0
		}
		return b
	}
	return make([]uint16, occWindow)
}

// release returns the bucket ring to the shared pool.
func (h *occHeap) release() {
	if h.buckets == nil {
		return
	}
	occBucketPool.Put(h.buckets)
	h.buckets = nil
}

// Release returns the core's pooled arrays — ROB ring, occupancy buckets,
// store-buffer ring, TLB entries and predictor tables — to their shared
// pools. The core must not be used afterwards; skipping Release is always
// safe.
func (c *Core) Release() {
	if c.rob != nil {
		robPoolFor(len(c.rob)).Put(c.rob)
		c.rob = nil
	}
	c.iq.release()
	c.lq.release()
	c.sb.Release()
	c.dtlb.Release()
	if c.bp != nil {
		c.bp.Release()
	}
}
