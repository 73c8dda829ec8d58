package cpu

import "spb/internal/pool"

// The pools a core's arrays come from (ROB ring and occupancy-tracker
// buckets), so repeated Runner invocations stop allocating them, and Release,
// which hands them back.

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
