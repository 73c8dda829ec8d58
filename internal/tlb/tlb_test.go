package tlb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"spb/internal/mem"
)

func TestTableIGeometry(t *testing.T) {
	tl := New(TableI())
	if tl.Sets() != 16 || tl.Ways() != 8 {
		t.Fatalf("Table I TLB = %d sets x %d ways, want 16x8", tl.Sets(), tl.Ways())
	}
}

func TestMissThenHit(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, WalkLat: 30})
	if lat := tl.Translate(0x1234); lat != 30 {
		t.Fatalf("cold access latency = %d, want 30", lat)
	}
	if lat := tl.Translate(0x1FFF); lat != 0 {
		t.Fatalf("same-page access latency = %d, want 0", lat)
	}
	if lat := tl.Translate(0x2000); lat != 30 {
		t.Fatalf("next-page access latency = %d, want 30", lat)
	}
	if tl.Hits != 1 || tl.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", tl.Hits, tl.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(Config{Entries: 2, Ways: 2, WalkLat: 10}) // 1 set, 2 ways
	tl.Translate(mem.AddrOfPage(1))
	tl.Translate(mem.AddrOfPage(2))
	tl.Translate(mem.AddrOfPage(1)) // touch 1, making 2 the LRU
	tl.Translate(mem.AddrOfPage(3)) // evicts 2
	if !tl.Covers(mem.AddrOfPage(1)) || !tl.Covers(mem.AddrOfPage(3)) {
		t.Fatal("pages 1 and 3 should be covered")
	}
	if tl.Covers(mem.AddrOfPage(2)) {
		t.Fatal("page 2 should have been evicted")
	}
}

func TestHitRate(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, WalkLat: 10})
	if tl.HitRate() != 1 {
		t.Fatal("idle TLB reports hit rate 1")
	}
	tl.Translate(0)
	tl.Translate(0)
	tl.Translate(0)
	if hr := tl.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", hr)
	}
}

func TestStreamingWithinPageCostsOneWalk(t *testing.T) {
	tl := New(TableI())
	var walks uint64
	for a := mem.Addr(0); a < 4*mem.PageSize; a += 8 {
		walks += tl.Translate(a)
	}
	if walks != 4*30 {
		t.Fatalf("4-page stream cost %d walk cycles, want 120", walks)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 0, Ways: 1},
		{Entries: 8, Ways: 3},
		{Entries: 24, Ways: 2}, // 12 sets: not a power of two
		{Entries: 8, Ways: 2, WalkLat: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// refTLB is the reference the TLB must agree with, written out on its own: a
// set-associative array of timestamped translations. A fill takes the first
// invalid way from index 1, else the way with the smallest last use (way 0
// included), so it places pages in other ways than the TLB does; which pages
// it holds, and so every hit and miss, must be the same.
type refTLB struct {
	ways         int
	ents         []refEntry
	clock        uint64
	hits, misses uint64 // of counted accesses only
}

type refEntry struct {
	page    mem.Page
	lastUse uint64
	valid   bool
}

func newRef(cfg Config) *refTLB {
	return &refTLB{ways: cfg.Ways, ents: make([]refEntry, cfg.Entries)}
}

func (r *refTLB) set(p mem.Page) []refEntry {
	sets := uint64(len(r.ents) / r.ways)
	i := (uint64(p) % sets) * uint64(r.ways)
	return r.ents[i : i+uint64(r.ways)]
}

// access makes p the most recently used translation of its set, filling it
// over the least recently used way when absent, counts the access when count
// is set (Translate) and not when it is not (Warm), and reports a hit.
func (r *refTLB) access(p mem.Page, count bool) (hit bool) {
	set := r.set(p)
	r.clock++
	for i := range set {
		if e := &set[i]; e.valid && e.page == p {
			e.lastUse = r.clock
			if count {
				r.hits++
			}
			return true
		}
	}
	if count {
		r.misses++
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	set[vi] = refEntry{page: p, lastUse: r.clock, valid: true}
	return false
}

func (r *refTLB) covers(p mem.Page) bool {
	for _, e := range r.set(p) {
		if e.valid && e.page == p {
			return true
		}
	}
	return false
}

func (r *refTLB) clone() *refTLB {
	c := *r
	c.ents = append([]refEntry(nil), r.ents...)
	return &c
}

// Property: a translated page is always covered afterwards, every access hits
// or misses as the reference does, and occupancy never exceeds capacity.
func TestCoverageInvariant(t *testing.T) {
	f := func(pages []uint16) bool {
		cfg := Config{Entries: 32, Ways: 4, WalkLat: 20}
		tl, ref := New(cfg), newRef(cfg)
		for _, p := range pages {
			a := mem.AddrOfPage(mem.Page(p))
			if (tl.Translate(a) == 0) != ref.access(mem.Page(p), true) || !tl.Covers(a) {
				return false
			}
		}
		covered := map[uint16]bool{}
		for _, p := range pages {
			c := tl.Covers(mem.AddrOfPage(mem.Page(p)))
			if c != ref.covers(mem.Page(p)) {
				return false
			}
			if c {
				covered[p] = true
			}
		}
		return len(covered) <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTranslateAndWarmMatchScan: over 100 000 accesses — runs within a page,
// random pages that thrash the sets, Translate and Warm interleaved — every
// access hits or misses as the reference's does, Warm leaves the counters
// alone, the TLB covers exactly the pages the reference holds, and so it all
// does after a Restore to a snapshot taken 30 000 accesses earlier.
func TestTranslateAndWarmMatchScan(t *testing.T) {
	for _, cfg := range []Config{TableI(), {Entries: 32, Ways: 4, WalkLat: 20}, {Entries: 8, Ways: 2, WalkLat: 7}, {Entries: 4, Ways: 4}} {
		got, want := New(cfg), newRef(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.Entries)))
		var (
			at     *Snapshot
			wantAt *refTLB
			page   mem.Page
		)
		for i := 0; i < 100_000; i++ {
			if rng.Intn(4) == 0 {
				page = mem.Page(rng.Intn(3 * cfg.Entries))
			}
			a, warm := mem.AddrOfPage(page)+mem.Addr(rng.Intn(mem.PageSize)), rng.Intn(8) == 0
			hits, misses := got.Hits, got.Misses
			var hit bool
			if warm {
				hit = got.Covers(a)
				got.Warm(a)
				if got.Hits != hits || got.Misses != misses {
					t.Fatalf("%+v: access %d: Warm moved the counters", cfg, i)
				}
			} else {
				lat := got.Translate(a)
				hit = got.Hits == hits+1
				wantLat := uint64(cfg.WalkLat)
				if hit {
					wantLat = 0
				}
				if lat != wantLat {
					t.Fatalf("%+v: access %d: Translate returned %d, want %d (hit %v)", cfg, i, lat, wantLat, hit)
				}
			}
			if wantHit := want.access(page, !warm); hit != wantHit {
				t.Fatalf("%+v: access %d (page %d, warm %v): hit %v, reference %v", cfg, i, page, warm, hit, wantHit)
			}
			if got.Hits != want.hits || got.Misses != want.misses {
				t.Fatalf("%+v: access %d: hits/misses %d/%d, reference %d/%d", cfg, i, got.Hits, got.Misses, want.hits, want.misses)
			}
			if i%997 == 0 {
				for p := mem.Page(0); p < mem.Page(3*cfg.Entries); p++ {
					if c := got.Covers(mem.AddrOfPage(p)); c != want.covers(p) {
						t.Fatalf("%+v: access %d: page %d covered %v, reference %v", cfg, i, p, c, !c)
					}
				}
			}
			switch i {
			case 30_000:
				at, wantAt = got.Snapshot(), want.clone()
			case 60_000:
				got.Restore(at)
				want = wantAt
				if !reflect.DeepEqual(got.Snapshot(), at) {
					t.Fatalf("%+v: a snapshot taken right after Restore differs from the one restored", cfg)
				}
			}
		}
		if got.Hits == 0 || got.Misses == 0 {
			t.Fatalf("%+v: %d hits, %d misses: the walk exercises one path only", cfg, got.Hits, got.Misses)
		}
	}
}
