package cache

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"spb/internal/mem"
)

func small() *Cache { // 4 sets x 2 ways
	return New("t", 4*2*64, 2, 4)
}

func TestNewGeometry(t *testing.T) {
	c := New("L1", 32<<10, 8, 64)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("sets/ways = %d/%d, want 64/8", c.Sets(), c.Ways())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets should panic")
		}
	}()
	New("bad", 3*64, 1, 4)
}

// TestNewPanicsPastSixteenWays: the recency word orders sixteen ways; a wider
// cache is refused by config.MachineConfig.Validate before it gets here.
func TestNewPanicsPastSixteenWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 32-way cache should panic")
		}
	}()
	New("wide", 32*64, 32, 4)
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(5, true) != nil {
		t.Fatal("empty cache should miss")
	}
	c.Insert(5, Shared, 0, false, false)
	l := c.Lookup(5, true)
	if l == nil || l.State != Shared {
		t.Fatal("inserted block should hit in Shared")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestTagAccessesCounted(t *testing.T) {
	c := small()
	c.Lookup(1, true)
	c.Lookup(2, false)
	c.Peek(3)
	if c.TagAccesses != 2 {
		t.Fatalf("TagAccesses = %d, want 2 (Peek must not count)", c.TagAccesses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways; blocks 0, 4, 8 map to set 0
	c.Insert(0, Modified, 0, false, false)
	c.Insert(4, Shared, 0, false, false)
	c.Lookup(0, true) // touch 0, making 4 the LRU
	_, victim, evicted := c.Insert(8, Shared, 0, false, false)
	if !evicted || victim.Block != 4 {
		t.Fatalf("victim = %+v evicted=%v, want block 4", victim, evicted)
	}
	if c.Lookup(0, true) == nil || c.Lookup(8, true) == nil {
		t.Fatal("blocks 0 and 8 should remain")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := small()
	c.Insert(0, Modified, 0, false, false)
	c.Insert(4, Shared, 0, false, false)
	_, victim, evicted := c.Insert(8, Shared, 0, false, false)
	if !evicted || victim.State != Modified {
		t.Fatal("LRU modified block should be the victim")
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks)
	}
}

func TestInsertExistingUpgradesInPlace(t *testing.T) {
	c := small()
	c.Insert(0, Shared, 0, false, false)
	_, _, evicted := c.Insert(0, Modified, 10, false, false)
	if evicted {
		t.Fatal("upgrading a present block must not evict")
	}
	l := c.Peek(0)
	if l.State != Modified || l.ReadyAt != 10 {
		t.Fatalf("line = %+v, want Modified ready at 10", l)
	}
	if c.Evictions != 0 {
		t.Fatal("no eviction should be counted")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(7, Modified, 0, false, false)
	old, ok := c.Invalidate(7)
	if !ok || old.State != Modified {
		t.Fatal("invalidate should return the old modified line")
	}
	if c.Peek(7) != nil {
		t.Fatal("block should be gone")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Fatal("second invalidate should find nothing")
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	c.Insert(3, Modified, 0, false, false)
	present, dirty := c.Downgrade(3)
	if !present || !dirty {
		t.Fatal("downgrade of M should report present and dirty")
	}
	if c.Peek(3).State != Shared {
		t.Fatal("downgraded line should be Shared")
	}
	if p, _ := c.Downgrade(99); p {
		t.Fatal("downgrade of absent block should report absent")
	}
}

func TestInFlightFill(t *testing.T) {
	c := small()
	c.Insert(1, Modified, 100, true, true)
	l := c.Lookup(1, true)
	if l == nil {
		t.Fatal("in-flight line should be found by lookup")
	}
	if l.ReadyAt != 100 || !l.Prefetched || !l.PrefetchWrite {
		t.Fatalf("line = %+v, want prefetch-write fill ready at 100", l)
	}
}

func TestMSHRDelaysWhenFull(t *testing.T) {
	c := New("t", 4*2*64, 2, 2) // 2 MSHRs
	if got := c.MSHRAvailable(10); got != 10 {
		t.Fatalf("first miss issues at %d, want 10", got)
	}
	c.NoteMiss(50)
	if got := c.MSHRAvailable(11); got != 11 {
		t.Fatalf("second miss issues at %d, want 11", got)
	}
	c.NoteMiss(60)
	// Both MSHRs busy until 50/60: a third request at 12 waits for the
	// earliest completion (50).
	if got := c.MSHRAvailable(12); got != 50 {
		t.Fatalf("third miss issues at %d, want 50", got)
	}
	c.NoteMiss(70)
}

func TestMSHRExpires(t *testing.T) {
	c := New("t", 4*2*64, 2, 1)
	c.MSHRAvailable(0)
	c.NoteMiss(5)
	// At cycle 6 the previous miss has completed, so no delay.
	if got := c.MSHRAvailable(6); got != 6 {
		t.Fatalf("miss after expiry issues at %d, want 6", got)
	}
}

func TestOutstandingAt(t *testing.T) {
	c := New("t", 4*2*64, 2, 8)
	c.NoteMiss(10)
	c.NoteMiss(20)
	if n := c.OutstandingAt(5); n != 2 {
		t.Fatalf("outstanding at 5 = %d, want 2", n)
	}
	if n := c.OutstandingAt(15); n != 1 {
		t.Fatalf("outstanding at 15 = %d, want 1", n)
	}
	if n := c.OutstandingAt(25); n != 0 {
		t.Fatalf("outstanding at 25 = %d, want 0", n)
	}
}

func TestStateStringsAndWritable(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if Shared.Writable() || Invalid.Writable() {
		t.Fatal("S/I must not be writable")
	}
	if !Exclusive.Writable() || !Modified.Writable() {
		t.Fatal("E/M must be writable")
	}
}

// Property: a set's live mask names only ways it has, every live way's short
// tag agrees with its line record, no block sits in a set twice or in a set it
// does not map to, and the recency word orders each way exactly once.
func TestSetInvariant(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		c := New("p", 8*4*64, 4, 8)
		for _, op := range ops {
			b := mem.Block(op % 256)
			switch op % 3 {
			case 0:
				c.Insert(b, Shared, 0, false, false)
			case 1:
				c.Insert(b, Modified, uint64(op), op%2 == 0, false)
			default:
				c.Invalidate(b)
			}
		}
		// Audit every set.
		for s := 0; s < c.Sets(); s++ {
			seen := map[mem.Block]bool{}
			var ordered uint
			for w := 0; w < c.Ways(); w++ {
				ordered |= 1 << (c.rec[s] >> (4 * uint(w)) & 15)
				i := s*c.Ways() + w
				if c.live[s]>>uint(w)&1 == 0 {
					continue
				}
				l := &c.lines[i]
				if c.tags[i] != uint32(uint64(l.Block)>>c.setBits) || l.State == Invalid {
					return false // short tag out of sync with line record
				}
				if seen[l.Block] {
					return false // duplicate block in set
				}
				seen[l.Block] = true
				if int(uint64(l.Block)&c.setMask) != s {
					return false // block in wrong set
				}
			}
			if ordered != 1<<uint(c.Ways())-1 || uint(c.live[s])>>uint(c.Ways()) != 0 {
				return false // recency word not an order of the ways, or a live bit past them
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refList is the obviously-correct model of the MSHR list: an unordered
// multiset searched linearly.
type refList []uint64

func (r *refList) expire(t uint64) {
	kept := (*r)[:0]
	for _, v := range *r {
		if v > t {
			kept = append(kept, v)
		}
	}
	*r = kept
}

func (r *refList) popMin() uint64 {
	mi := 0
	for i, v := range *r {
		if v < (*r)[mi] {
			mi = i
		}
	}
	v := (*r)[mi]
	*r = append((*r)[:mi], (*r)[mi+1:]...)
	return v
}

func (r refList) max() uint64 {
	var m uint64
	for _, v := range r {
		m = max(m, v)
	}
	return m
}

// TestReadyListMatchesReference drives the sorted MSHR list and the naive
// multiset through the same random push/expire/popMin/max sequences —
// including long stretches at the 64-entry MSHR limit, where every push is
// preceded by a popMin as in MSHRAvailable — and demands equal answers, an
// ascending list, and no allocation once the backing array has grown.
func TestReadyListMatchesReference(t *testing.T) {
	const mshrs = 64
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		var l readyList
		var ref refList
		now := uint64(0)
		for op := 0; op < 5000; op++ {
			switch k := rng.Intn(10); {
			case k < 6: // a miss: wait for an MSHR if all are busy, then issue
				for l.len() >= mshrs {
					if got, want := l.popMin(), ref.popMin(); got != want {
						t.Fatalf("round %d op %d: popMin = %d, want %d", round, op, got, want)
					}
				}
				// Mostly in issue order, sometimes far out of order, often equal.
				v := now + uint64(rng.Intn(400))
				if rng.Intn(4) == 0 {
					v = now + uint64(rng.Intn(4))
				}
				l.push(v)
				ref = append(ref, v)
			case k < 8:
				if round%2 == 0 { // odd rounds never expire: the list stays full
					now += uint64(rng.Intn(120))
					l.expire(now)
					ref.expire(now)
				}
			case k < 9:
				if l.len() > 0 {
					if got, want := l.popMin(), ref.popMin(); got != want {
						t.Fatalf("round %d op %d: popMin = %d, want %d", round, op, got, want)
					}
				}
			}
			if l.len() != len(ref) || l.max() != ref.max() {
				t.Fatalf("round %d op %d: len/max = %d/%d, want %d/%d", round, op, l.len(), l.max(), len(ref), ref.max())
			}
			if !sort.SliceIsSorted(l.a, func(i, j int) bool { return l.a[i] < l.a[j] }) {
				t.Fatalf("round %d op %d: list not ascending: %v", round, op, l.a)
			}
		}
		if cap(l.a) > 2*mshrs {
			t.Fatalf("round %d: backing array grew to %d for at most %d entries", round, cap(l.a), mshrs)
		}
	}
}

// TestLineIs32Bytes pins the record size the L3's host-memory footprint (and
// the two-lines-per-host-cache-line layout) depends on, and the zero value's
// meaning: no block, no owner, no sharers.
func TestLineIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("sizeof(Line) = %d, want 32", n)
	}
	var l Line
	if l.Owner() != -1 || l.Holders() != 0 || l.State != Invalid {
		t.Fatalf("zero Line = %+v (owner %d), want invalid and ownerless", l, l.Owner())
	}
	l.SetOwner(0)
	if l.Owner() != 0 || l.Holders() != 1 {
		t.Fatalf("owner 0: Owner = %d, Holders = %#x", l.Owner(), l.Holders())
	}
	l.SetOwner(63)
	l.Sharers = 1 << 5
	if l.Owner() != 63 || l.Holders() != 1<<63|1<<5 {
		t.Fatalf("owner 63: Owner = %d, Holders = %#x", l.Owner(), l.Holders())
	}
	l.SetOwner(-1)
	if l.Owner() != -1 || l.Holders() != 1<<5 {
		t.Fatalf("cleared: Owner = %d, Holders = %#x", l.Owner(), l.Holders())
	}
}

// TestInsertCarriesDirectoryState: a fill starts with empty directory state
// even in a recycled way, an in-place upgrade keeps it, and the victim copy
// hands it out — the three properties memsys's in-line directory relies on.
func TestInsertCarriesDirectoryState(t *testing.T) {
	c := small() // blocks 0, 4, 8 map to set 0
	defer c.Release()
	l0, _, _ := c.Insert(0, Shared, 0, false, false)
	if l0 != c.Peek(0) {
		t.Fatalf("Insert returned %p, the line is %p", l0, c.Peek(0))
	}
	l0.SetOwner(3)
	l0.Sharers = 0b1010
	if up, _, evicted := c.Insert(0, Modified, 0, false, false); evicted || up != l0 || up.Owner() != 3 || up.Sharers != 0b1010 {
		t.Fatalf("upgrade in place lost directory state: %+v", up)
	}
	c.Insert(4, Shared, 0, false, false)
	c.Lookup(4, true) // 0 is now the LRU way
	l8, victim, evicted := c.Insert(8, Shared, 0, false, false)
	if !evicted || victim.Block != 0 || victim.Owner() != 3 || victim.Sharers != 0b1010 {
		t.Fatalf("victim = %+v evicted=%v, want block 0 with its directory state", victim, evicted)
	}
	if l8.Owner() != -1 || l8.Sharers != 0 {
		t.Fatalf("fill into a recycled way inherited directory state: %+v", l8)
	}
}

// recordCount is the number of records in a stream of c's.
func recordCount(c *Cache, p []byte) int {
	n, prev := 0, uint64(0)
	for at := 0; at < len(p); n++ {
		var l Line
		at = c.record(p, at, 0, prev, &l)
		prev = uint64(l.Block) >> c.setBits
	}
	return n
}

// TestSnapshotHoldsLiveLinesOnly drives 1-, 8- and 16-way caches with random
// fills, lookups and invalidations — so the live masks have holes — and checks
// the snapshot by what it must do, not by where it keeps a line: it holds one
// record per live way; restored into an arena another cache dirtied, the copy
// snapshots to the same value and answers every lookup as the source does; and the two stay equal under further identical
// traffic, so nothing a free way held leaks into behaviour.
func TestSnapshotHoldsLiveLinesOnly(t *testing.T) {
	for _, ways := range []int{1, 8, 16} {
		const sets = 16
		size := sets * ways * mem.BlockSize
		rng := rand.New(rand.NewSource(int64(ways)))
		pool := make([]mem.Block, 3*sets*ways)
		for i := range pool {
			pool[i] = mem.Block(rng.Intn(8 * sets * ways))
		}
		traffic := func(n int, cs ...*Cache) {
			for ; n > 0; n-- {
				b, k, ready := pool[rng.Intn(len(pool))], rng.Intn(10), uint64(rng.Intn(1000))
				for _, c := range cs {
					switch {
					case k < 4:
						if l, _, _ := c.Insert(b, Modified, ready, k == 0, false); k == 1 {
							l.SetOwner(int(ready % 4))
							l.Sharers = ready & 0xf
						}
					case k < 7:
						c.Invalidate(b)
					default:
						c.Lookup(b, k == 9)
					}
				}
			}
		}

		src := New("src", size, ways, 4)
		traffic(20*sets*ways, src)
		src.NoteMiss(40)
		snap := src.Snapshot()
		live := 0
		src.ForEach(func(*Line) bool { live++; return true })
		if n := recordCount(src, snap.Records); n != live || live == 0 || live == sets*ways {
			t.Fatalf("%d-way: snapshot holds %d records, cache has %d live of %d (the traffic must leave holes)", ways, n, live, sets*ways)
		}

		dirty := New("dirty", size, ways, 4)
		traffic(20*sets*ways, dirty)
		dirty.Release()
		dst := New("dst", size, ways, 4) // usually dirty's arena, straight from the pool
		dst.Restore(snap)
		if again := dst.Snapshot(); !reflect.DeepEqual(again, snap) {
			t.Fatalf("%d-way: restore + snapshot is not the identity", ways)
		}
		for _, b := range pool {
			got, want := dst.Lookup(b, false), src.Lookup(b, false)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("%d-way: Lookup(%#x) = %+v after restore, source %+v", ways, b, got, want)
			}
		}
		traffic(20*sets*ways, src, dst)
		if a, b := src.Snapshot(), dst.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%d-way: source and restored copy diverged under the same traffic", ways)
		}

		// A cache nothing ever filled: no lines.
		if cold := New("cold", size, ways, 4).Snapshot(); cold.Records != nil {
			t.Fatalf("%d-way: cold snapshot holds %d record bytes", ways, len(cold.Records))
		}
	}
}
