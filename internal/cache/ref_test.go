package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spb/internal/mem"
)

// refCache is the obviously-right model the packed layout is checked against:
// a slice of ways per set, each with its own line record, a liveness flag and
// the clock value of its last use. A fill takes the way already holding the
// block, else the first free way, else the way with the oldest stamp.
type refCache struct {
	ways    int
	setMask uint64
	sets    [][]refWay
	clock   uint64

	tagAccesses, hits, misses, evictions, writebacks uint64
}

type refWay struct {
	line  Line
	live  bool
	stamp uint64
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{ways: ways, setMask: uint64(sets - 1), sets: make([][]refWay, sets)}
	for i := range r.sets {
		r.sets[i] = make([]refWay, ways)
	}
	return r
}

func (r *refCache) find(b mem.Block) *refWay {
	set := r.sets[uint64(b)&r.setMask]
	for w := range set {
		if set[w].live && set[w].line.Block == b {
			return &set[w]
		}
	}
	return nil
}

func (r *refCache) touch(w *refWay) {
	r.clock++
	w.stamp = r.clock
}

func (r *refCache) lookup(b mem.Block, touch bool) *Line {
	r.tagAccesses++
	w := r.find(b)
	if w == nil {
		if touch {
			r.misses++
		}
		return nil
	}
	if touch {
		r.touch(w)
		r.hits++
	}
	return &w.line
}

func (r *refCache) insert(b mem.Block, st State, readyAt uint64, prefetched, pfWrite bool) (line *Line, victim Line, evicted bool) {
	if w := r.find(b); w != nil {
		r.touch(w)
		w.line.State = st
		if readyAt > w.line.ReadyAt {
			w.line.ReadyAt = readyAt
		}
		w.line.Prefetched, w.line.PrefetchWrite = prefetched, pfWrite
		return &w.line, Line{}, false
	}
	set := r.sets[uint64(b)&r.setMask]
	pick := -1
	for w := range set {
		if !set[w].live {
			pick = w
			break
		}
	}
	if pick < 0 {
		pick = 0
		for w := range set {
			if set[w].stamp < set[pick].stamp {
				pick = w
			}
		}
		victim, evicted = set[pick].line, true
		r.evictions++
		if victim.State == Modified {
			r.writebacks++
		}
	}
	w := &set[pick]
	w.live = true
	w.line = Line{Block: b, State: st, ReadyAt: readyAt, Prefetched: prefetched, PrefetchWrite: pfWrite}
	r.touch(w)
	return &w.line, victim, evicted
}

func (r *refCache) invalidate(b mem.Block) (Line, bool) {
	w := r.find(b)
	if w == nil {
		return Line{}, false
	}
	old := w.line
	w.line, w.live = Line{}, false
	return old, true
}

func (r *refCache) downgrade(b mem.Block) (present, wasDirty bool) {
	w := r.find(b)
	if w == nil {
		return false, false
	}
	wasDirty = w.line.State == Modified
	w.line.State = Shared
	return true, wasDirty
}

func sameLine(a, b *Line) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

// TestCacheMatchesReference drives the cache and the naive model through the
// same 200 000 random operations per geometry and demands, at every step, the
// same hit or miss, the same line contents, the same victim (block, state and
// directory holders) and the same counters. The block pool is a few times the
// cache's capacity and a third of it sits 2^32 sets above another member, so
// the two share a set and a 32-bit short tag and only the confirming compare
// against the line record tells them apart. Every 20 000 operations the cache
// is replaced by a new one restored from its snapshot (through a recycled
// arena), so the snapshot and the tags Restore derives carry the same state.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			const sets = 8
			setBits := uint(3)
			c := New("dut", sets*ways*mem.BlockSize, ways, 4)
			ref := newRefCache(sets, ways)
			rng := rand.New(rand.NewSource(int64(ways)))

			pool := make([]mem.Block, 0, 6*sets*ways)
			for len(pool) < cap(pool) {
				b := mem.Block(rng.Intn(4 * sets * ways))
				pool = append(pool, b)
				if len(pool)%3 == 0 {
					// Same set, same short tag: the address is at or above
					// 2^(38+setBits).
					pool = append(pool, b+mem.Block(1+rng.Intn(3))<<(32+setBits))
				}
			}
			states := []State{Shared, Exclusive, Modified}

			for op := 0; op < 200_000; op++ {
				b := pool[rng.Intn(len(pool))]
				st := states[rng.Intn(len(states))]
				switch k := rng.Intn(8); {
				case k < 3:
					touch := rng.Intn(4) != 0
					got, want := c.Lookup(b, touch), ref.lookup(b, touch)
					if !sameLine(got, want) {
						t.Fatalf("op %d: Lookup(%#x, %v) = %+v, reference %+v", op, b, touch, got, want)
					}
					if got != nil && rng.Intn(4) == 0 {
						// The directory state memsys keeps in the line.
						core := rng.Intn(8)
						got.SetOwner(core)
						want.SetOwner(core)
						got.Sharers, want.Sharers = uint64(op)&0xff, uint64(op)&0xff
					}
				case k < 6:
					readyAt, pf, pfw := uint64(rng.Intn(1000)), rng.Intn(2) == 0, rng.Intn(2) == 0
					gl, gv, ge := c.Insert(b, st, readyAt, pf, pfw)
					wl, wv, we := ref.insert(b, st, readyAt, pf, pfw)
					if !sameLine(gl, wl) || gv != wv || ge != we {
						t.Fatalf("op %d: Insert(%#x) = %+v, victim %+v (holders %#x) %v; reference %+v, victim %+v (holders %#x) %v",
							op, b, gl, gv, gv.Holders(), ge, wl, wv, wv.Holders(), we)
					}
				case k < 7:
					gl, gok := c.Invalidate(b)
					wl, wok := ref.invalidate(b)
					if gl != wl || gok != wok {
						t.Fatalf("op %d: Invalidate(%#x) = %+v %v, reference %+v %v", op, b, gl, gok, wl, wok)
					}
				default:
					gp, gd := c.Downgrade(b)
					wp, wd := ref.downgrade(b)
					if gp != wp || gd != wd {
						t.Fatalf("op %d: Downgrade(%#x) = %v %v, reference %v %v", op, b, gp, gd, wp, wd)
					}
				}
				got := [5]uint64{c.TagAccesses, c.Hits, c.Misses, c.Evictions, c.Writebacks}
				want := [5]uint64{ref.tagAccesses, ref.hits, ref.misses, ref.evictions, ref.writebacks}
				if got != want {
					t.Fatalf("op %d: counters (tag, hit, miss, evict, wb) = %v, reference %v", op, got, want)
				}
				if op%20_000 == 19_999 {
					snap := c.Snapshot()
					c.Release()
					c = New("dut", sets*ways*mem.BlockSize, ways, 4)
					c.Restore(snap)
					if again := c.Snapshot(); !reflect.DeepEqual(again, snap) {
						t.Fatalf("op %d: restore + snapshot is not the identity", op)
					}
				}
			}
			// What is left in the arrays agrees too.
			var live []Line
			c.ForEach(func(l *Line) bool { live = append(live, *l); return true })
			var want []Line
			for _, set := range ref.sets {
				for _, w := range set {
					if w.live {
						want = append(want, w.line)
					}
				}
			}
			if !reflect.DeepEqual(live, want) {
				t.Fatalf("final contents differ: %d lines, reference %d", len(live), len(want))
			}
		})
	}
}

// TestToFront moves every way from every position of an 8- and a 16-way
// recency word (a rotation of the identity order puts way w at position p)
// and compares with move-to-front on a slice.
func TestToFront(t *testing.T) {
	for _, ways := range []int{8, 16} {
		for w := 0; w < ways; w++ {
			for p := 0; p < ways; p++ {
				order := make([]int, ways)
				var word uint64
				for q := range order {
					order[q] = (w - p + q + ways) % ways
					word |= uint64(order[q]) << (4 * uint(q))
				}
				want := append([]int{w}, order[:p]...)
				want = append(want, order[p+1:]...)
				got := toFront(word, w)
				for q, v := range want {
					if int(got>>(4*uint(q))&15) != v {
						t.Fatalf("%d ways: toFront(%#x, way %d at position %d) = %#x, want order %v", ways, word, w, p, got, want)
					}
				}
				if got>>(4*uint(ways)) != 0 {
					t.Fatalf("%d ways: toFront(%#x, %d) = %#x wrote past the ways", ways, word, w, got)
				}
			}
		}
	}
}
