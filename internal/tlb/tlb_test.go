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

// Property: a translated page is always covered afterwards, and occupancy
// never exceeds capacity.
func TestCoverageInvariant(t *testing.T) {
	f := func(pages []uint16) bool {
		tl := New(Config{Entries: 32, Ways: 4, WalkLat: 20})
		for _, p := range pages {
			a := mem.AddrOfPage(mem.Page(p))
			tl.Translate(a)
			if !tl.Covers(a) {
				return false
			}
		}
		valid := 0
		for _, e := range tl.entries {
			if e.Valid {
				valid++
			}
		}
		return valid <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// scanTranslate is Translate (count) or Warm (not) written out on its own: the
// reference the one routine under both must agree with.
func scanTranslate(t *TLB, a mem.Addr, count bool) {
	p := mem.PageOf(a)
	set := t.set(p)
	t.clock++
	for i := range set {
		if e := &set[i]; e.Valid && e.Page == p {
			e.LastUse = t.clock
			if count {
				t.Hits++
			}
			return
		}
	}
	if count {
		t.Misses++
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if !set[i].Valid {
			vi = i
			break
		}
		if set[i].LastUse < set[vi].LastUse {
			vi = i
		}
	}
	set[vi] = entry{Page: p, LastUse: t.clock, Valid: true}
}

// TestTranslateAndWarmMatchScan: over 100 000 accesses — runs within a page,
// random pages that thrash the sets, Translate and Warm mixed — the TLB holds,
// entry for entry, what the reference leaves (so the same victims), with the
// same Hits, Misses and clock; so it does after a Restore.
func TestTranslateAndWarmMatchScan(t *testing.T) {
	for _, cfg := range []Config{TableI(), {Entries: 8, Ways: 2, WalkLat: 7}, {Entries: 4, Ways: 4}} {
		got, want := New(cfg), New(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.Entries)))
		var at *Snapshot
		var page mem.Page
		for i := 0; i < 100_000; i++ {
			if rng.Intn(4) == 0 {
				page = mem.Page(rng.Intn(3 * cfg.Entries))
			}
			a, warm := mem.AddrOfPage(page)+mem.Addr(rng.Intn(mem.PageSize)), rng.Intn(8) == 0
			if warm {
				got.Warm(a)
			} else if lat := got.Translate(a); lat != 0 && lat != uint64(cfg.WalkLat) {
				t.Fatalf("Translate returned %d, want 0 or the walk latency %d", lat, cfg.WalkLat)
			}
			scanTranslate(want, a, !warm)
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Fatalf("%+v: access %d (page %d, warm %v): TLB and reference diverge\n got %+v\nwant %+v", cfg, i, page, warm, got.Snapshot(), want.Snapshot())
			}
			switch i {
			case 30_000:
				at = got.Snapshot()
			case 60_000:
				got.Restore(at)
				want.Restore(at)
			}
		}
		if got.Hits == 0 || got.Misses == 0 {
			t.Fatalf("%+v: %d hits, %d misses: the walk exercises one path only", cfg, got.Hits, got.Misses)
		}
	}
}
