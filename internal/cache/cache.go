// Package cache implements the set-associative cache arrays used at every
// level of the hierarchy: MESI line states, LRU replacement, tag-access
// accounting, in-flight fills (a line knows when its data/permission
// actually arrives, which is how late prefetches are detected), and an
// MSHR capacity model that bounds outstanding misses per cache.
package cache

import (
	"fmt"
	"math/bits"

	"spb/internal/mem"
	"spb/internal/pool"
)

// State is a MESI coherence state. Levels below the L1 mostly use
// Shared/Modified; the full set exists so the directory protocol in
// package memsys can be expressed uniformly.
type State uint8

const (
	// Invalid: the line holds no valid block.
	Invalid State = iota
	// Shared: read-only copy; other caches may hold it too.
	Shared
	// Exclusive: only copy, clean; may be written without a request.
	Exclusive
	// Modified: only copy, dirty; must be written back on eviction.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Writable reports whether a store may perform against this state without a
// coherence request.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

// Line is one cache line. The zero value is an invalid line that no core
// owns or shares. Fields are ordered so the record is 32 bytes: two lines per
// 64-byte host cache line, none straddling.
type Line struct {
	Block mem.Block
	// ReadyAt is the cycle at which the fill (data and/or permission)
	// completes. A demand access finding ReadyAt in the future has hit an
	// in-flight miss — for prefetched lines, that is a late prefetch.
	ReadyAt uint64
	// Sharers is the line's directory state at the shared inclusive L3: a
	// bitmask of the cores holding the block read-only. Private caches leave
	// it zero. A fill starts with no sharers and no owner, an in-place
	// upgrade keeps both, and a victim copy carries them out so the caller
	// can back-invalidate without a second lookup.
	Sharers uint64
	State   State
	// ownerPlus1 is the core holding the block in E or M at the directory,
	// plus one, so that the zero Line is ownerless rather than owned by core
	// 0. Read and write it through Owner and SetOwner.
	ownerPlus1 uint8
	// Prefetched marks a line filled by a prefetch that no demand access
	// has consumed yet; used for the Fig. 11 accuracy taxonomy.
	Prefetched bool
	// PrefetchWrite records that the prefetch requested ownership
	// (prefetch-exclusive), as the at-commit/at-execute/SPB policies do.
	PrefetchWrite bool
}

// Owner returns the core that holds the block exclusively according to the
// line's directory state, or -1 when no core does.
func (l *Line) Owner() int { return int(l.ownerPlus1) - 1 }

// SetOwner records core as the exclusive holder; -1 clears the owner.
func (l *Line) SetOwner(core int) { l.ownerPlus1 = uint8(core + 1) }

// Holders returns the mask of every core the directory state names, owner
// and sharers alike: the cores an eviction must back-invalidate.
func (l *Line) Holders() uint64 {
	if l.ownerPlus1 == 0 {
		return l.Sharers
	}
	return l.Sharers | 1<<(l.ownerPlus1-1)
}

// mruFirstSets is the most sets a cache may have for find to read the recency
// word ahead of the tags: 512 bytes of them, beside the L1D's 2 KB of tags.
const mruFirstSets = 64

// maxWays is the widest set the per-set recency word can order: sixteen
// nibbles in a uint64.
const maxWays = 16

// recencyIdentity is the order way 0 (most recent) … way 15 (least recent).
const recencyIdentity = 0xFEDCBA9876543210

const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// toFront moves way w to the most-recent end of a set's recency word: the
// nibble holding w is found without a loop (xor makes it the zero nibble, the
// borrow trick marks the lowest zero nibble), the nibbles below it shift up
// one place and w takes the bottom. w must be in the word.
func toFront(word uint64, w int) uint64 {
	if int(word&15) == w {
		return word
	}
	x := word ^ uint64(w)*nibbleOnes
	at := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3
	below := word & (1<<at - 1)
	return word&^(1<<(at+4)-1) | below<<4 | uint64(w)
}

// geometry keys the arena pools: the per-set arrays are as long as the set
// count, which the line count alone does not give.
type geometry struct{ sets, ways int }

var arenaPool pool.Keyed[geometry, *arena]

// ArenasBuilt reports how many caches of this size and associativity found no
// recycled arena and allocated one: what a busy process should do once per
// machine it runs at a time.
func ArenasBuilt(sizeBytes, ways int) uint64 {
	return arenaPool.Misses(geometry{sizeBytes / (mem.BlockSize * ways), ways})
}

// Cache is one set-associative cache array. What the hot scans read is
// word-sized: a set's short tags (4 bytes per way: a 16-way set is one
// 64-byte host cache line) and, per set, one recency word and one live mask.
// The full Line records are touched only on a tag match or a fill.
type Cache struct {
	name    string
	ways    int
	setBits uint
	setMask uint64
	lines   []Line   // sets*ways, set-major
	tags    []uint32 // block >> setBits per way; a match is confirmed against lines[i].Block
	rec     []uint64 // per set: ways in recency order, one nibble each, most recent lowest
	live    []uint16 // per set: bit w set = way w holds a block (authoritative liveness)
	ar      *arena   // backing storage, recycled via Release; keeps the views mapped
	// absent is b+1 for the block b the last failed find looked for, until
	// something fills or restores: the fill that follows a miss reads it
	// instead of scanning the set a second time. 0 names no block.
	absent uint64
	// mruFirst: find tries the set's most recent way before scanning. Worth
	// it only where the recency words stay in the host's L1 (an L1D's 64
	// sets); for a larger cache the word is one more host line per probe.
	mruFirst bool

	mshrs       int
	outstanding readyList // ready cycles of in-flight misses

	// Statistics, read by the memory system's reporting layer.
	TagAccesses uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Writebacks  uint64
}

// New constructs a cache with the given geometry. Sets must be a power of
// two; sizeBytes = sets * ways * 64; ways is at most 16
// (config.MachineConfig.Validate refuses wider ones before a machine is
// built).
func New(name string, sizeBytes, ways, mshrs int) *Cache {
	if ways <= 0 || ways > maxWays {
		panic(fmt.Sprintf("cache %s: %d ways, want 1..%d", name, ways, maxWays))
	}
	sets := sizeBytes / (mem.BlockSize * ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a positive power of two", name, sets))
	}
	if mshrs <= 0 {
		panic(fmt.Sprintf("cache %s: MSHR count must be positive", name))
	}
	ar, ok := arenaPool.Get(geometry{sets, ways})
	if !ok {
		ar = newArena(sets, ways)
	}
	clear(ar.live)
	identity := uint64(recencyIdentity) & (1<<(4*uint(ways)) - 1)
	for i := range ar.rec {
		ar.rec[i] = identity
	}
	return &Cache{
		name:     name,
		ways:     ways,
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		lines:    ar.lines,
		tags:     ar.tags,
		rec:      ar.rec,
		live:     ar.live,
		ar:       ar,
		mruFirst: sets <= mruFirstSets,
		mshrs:    mshrs,
	}
}

// Release returns the arena to the geometry's shared pool so a later cache
// can reuse it without rebuilding or zeroing. The cache drops every view of
// it, so a use afterwards panics instead of touching the machine the arena
// goes to next. Skipping Release is always safe — the arena is handed back
// once the cache is unreachable.
func (c *Cache) Release() {
	if c.ar == nil {
		return
	}
	arenaPool.Put(geometry{len(c.live), c.ways}, c.ar)
	c.ar, c.lines, c.tags, c.rec, c.live = nil, nil, nil, nil, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.live) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// find returns the set of block b and the way holding it, or way -1. A miss
// usually reads nothing but the set's tags: the live mask and the line record
// are consulted only behind a short-tag match.
func (c *Cache) find(b mem.Block) (set, way int) {
	set = int(uint64(b) & c.setMask)
	base := set * c.ways
	short := uint32(uint64(b) >> c.setBits)
	if c.mruFirst {
		if w := int(c.rec[set] & 15); c.tags[base+w] == short && c.live[set]>>uint(w)&1 != 0 && c.lines[base+w].Block == b {
			return set, w
		}
	}
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == short && c.live[set]>>uint(w)&1 != 0 && c.lines[base+w].Block == b {
			return set, w
		}
	}
	c.absent = uint64(b) + 1
	return set, -1
}

// Lookup performs a tag access for block b and returns the line holding it,
// or nil on a miss. When touch is true the access updates LRU state and the
// hit/miss counters (demand accesses); probe-only lookups (snoops,
// duplicate-prefetch filtering) pass false.
func (c *Cache) Lookup(b mem.Block, touch bool) *Line {
	c.TagAccesses++
	set, w := c.find(b)
	if w < 0 {
		if touch {
			c.Misses++
		}
		return nil
	}
	if touch {
		c.rec[set] = toFront(c.rec[set], w)
		c.Hits++
	}
	return &c.lines[set*c.ways+w]
}

// Write is the tag access of a store performing at cycle t: the line holding b,
// counted and touched as a demand hit, when it is writable and its fill has
// arrived; otherwise nil and nothing counted — a store buffer waits for the
// fill, it does not re-probe the tags every cycle.
func (c *Cache) Write(b mem.Block, t uint64) *Line {
	set, w := c.find(b)
	if w < 0 {
		return nil
	}
	line := &c.lines[set*c.ways+w]
	if !line.State.Writable() || line.ReadyAt > t {
		return nil
	}
	c.TagAccesses++
	c.Hits++
	c.rec[set] = toFront(c.rec[set], w)
	return line
}

// Peek returns the line holding b without counting a tag access or touching
// LRU. For invariant checks and directory consistency audits.
func (c *Cache) Peek(b mem.Block) *Line {
	if set, w := c.find(b); w >= 0 {
		return &c.lines[set*c.ways+w]
	}
	return nil
}

// ForEach visits every line that holds a block, in set-major order, until fn
// returns false. For audits; fn must not insert or invalidate.
func (c *Cache) ForEach(fn func(*Line) bool) {
	for set, live := range c.live {
		for ; live != 0; live &= live - 1 {
			if !fn(&c.lines[set*c.ways+bits.TrailingZeros16(live)]) {
				return
			}
		}
	}
}

// place picks the way block b fills and makes it the set's most recent: the
// way already holding it (present: an upgrade miss, updated in place), else
// the lowest free way, else the least recently used way, whose line is the
// victim (occupied). The way's tag and live bit are set; the line record is
// the caller's to write.
func (c *Cache) place(b mem.Block) (i int, present, occupied bool) {
	set, w := int(uint64(b)&c.setMask), -1
	if c.absent != uint64(b)+1 {
		set, w = c.find(b)
	}
	c.absent = 0
	if present = w >= 0; !present {
		if free := ^c.live[set] & (1<<uint(c.ways) - 1); free != 0 {
			w = bits.TrailingZeros16(free)
			c.live[set] |= 1 << uint(w)
		} else {
			w = int(c.rec[set]>>(4*uint(c.ways-1))) & 15
			occupied = true
		}
	}
	c.rec[set] = toFront(c.rec[set], w)
	i = set*c.ways + w
	c.tags[i] = uint32(uint64(b) >> c.setBits)
	return i, present, occupied
}

// Insert fills block b in state st, with the fill completing at readyAt, and
// returns the filled line. It also returns the victim line (by value,
// directory state included) and whether a valid victim was evicted; the
// caller handles the writeback if victim.State == Modified. Inserting a block
// already present updates that line in place instead, keeping its directory
// state.
func (c *Cache) Insert(b mem.Block, st State, readyAt uint64, prefetched, pfWrite bool) (line *Line, victim Line, evicted bool) {
	i, present, occupied := c.place(b)
	line = &c.lines[i]
	if present {
		line.State = st
		if readyAt > line.ReadyAt {
			line.ReadyAt = readyAt
		}
		line.Prefetched = prefetched
		line.PrefetchWrite = pfWrite
		return line, Line{}, false
	}
	if occupied {
		victim = *line
		c.Evictions++
		if victim.State == Modified {
			c.Writebacks++
		}
	}
	*line = Line{
		Block:         b,
		State:         st,
		ReadyAt:       readyAt,
		Prefetched:    prefetched,
		PrefetchWrite: pfWrite,
	}
	return line, victim, occupied
}

// Invalidate removes block b, returning the invalidated line and whether it
// was present (the caller handles a dirty writeback / data transfer).
func (c *Cache) Invalidate(b mem.Block) (Line, bool) {
	set, w := c.find(b)
	if w < 0 {
		return Line{}, false
	}
	i := set*c.ways + w
	old := c.lines[i]
	c.lines[i] = Line{}
	c.live[set] &^= 1 << uint(w)
	return old, true
}

// Downgrade moves block b to Shared (directory fetched the data for a remote
// reader). Returns whether the block was present and was dirty.
func (c *Cache) Downgrade(b mem.Block) (present, wasDirty bool) {
	set, w := c.find(b)
	if w < 0 {
		return false, false
	}
	l := &c.lines[set*c.ways+w]
	wasDirty = l.State == Modified
	l.State = Shared
	return true, wasDirty
}

// OutstandingAt returns the number of misses still in flight at cycle t.
func (c *Cache) OutstandingAt(t uint64) int {
	c.outstanding.expire(t)
	return c.outstanding.len()
}

// MaxOutstandingReady returns the latest completion cycle among the misses
// still in flight at cycle t, or 0 when none are. The event-horizon
// scheduler uses it to batch "miss pending" stall accounting over a skipped
// span: cycle u has a miss in flight exactly when u < MaxOutstandingReady(t)
// (no new misses are issued while the core is idle).
func (c *Cache) MaxOutstandingReady(t uint64) uint64 {
	c.outstanding.expire(t)
	return c.outstanding.max()
}

// MSHRAvailable returns the cycle at which a miss issued at t can actually
// allocate an MSHR: t itself when a slot is free, otherwise the completion
// of the earliest outstanding fill. The caller computes the downstream
// latency from the returned cycle and then records it with NoteMiss.
func (c *Cache) MSHRAvailable(t uint64) (issueAt uint64) {
	c.outstanding.expire(t)
	issueAt = t
	for c.outstanding.len() >= c.mshrs {
		earliest := c.outstanding.popMin()
		if earliest > issueAt {
			issueAt = earliest
		}
	}
	return issueAt
}

// NoteMiss records an outstanding miss whose fill completes at ready.
func (c *Cache) NoteMiss(ready uint64) {
	c.outstanding.push(ready)
}

// readyList holds the ready cycles of in-flight fills in ascending order.
// Capacities are bounded by the MSHR count (≤64) and fills mostly complete in
// issue order, so push is an append plus a short back-shift, the common
// expire removes nothing (one compare against the head), and popMin — needed
// only when the MSHRs are full — and max read the two ends. Removal copies
// the tail down rather than re-slicing, so the backing array is reused
// forever and steady state allocates nothing.
type readyList struct {
	a []uint64
}

func (r *readyList) len() int { return len(r.a) }

func (r *readyList) push(v uint64) {
	a := append(r.a, v)
	i := len(a) - 1
	for ; i > 0 && a[i-1] > v; i-- {
		a[i] = a[i-1]
	}
	a[i] = v
	r.a = a
}

// dropHead removes the n earliest fills.
func (r *readyList) dropHead(n int) { r.a = r.a[:copy(r.a, r.a[n:])] }

func (r *readyList) popMin() uint64 {
	v := r.a[0]
	r.dropHead(1)
	return v
}

// max returns the latest ready cycle, or 0 when no fill is in flight.
func (r *readyList) max() uint64 {
	if len(r.a) == 0 {
		return 0
	}
	return r.a[len(r.a)-1]
}

// expire drops fills that completed at or before t.
func (r *readyList) expire(t uint64) {
	n := 0
	for n < len(r.a) && r.a[n] <= t {
		n++
	}
	if n > 0 {
		r.dropHead(n)
	}
}
