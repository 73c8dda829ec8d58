package memsys

import (
	"testing"
	"testing/quick"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/mem"
)

// tiny returns a machine with very small caches so that evictions and
// conflicts are easy to provoke in tests.
func tiny() config.MachineConfig {
	m := config.Skylake()
	m.L1D = config.CacheConfig{Name: "L1D", SizeBytes: 4 * 2 * 64, Ways: 2, LatencyCyc: 4, MSHRs: 8}
	m.L2 = config.CacheConfig{Name: "L2", SizeBytes: 8 * 4 * 64, Ways: 4, LatencyCyc: 14, MSHRs: 8}
	m.L3 = config.CacheConfig{Name: "L3", SizeBytes: 16 * 8 * 64, Ways: 8, LatencyCyc: 36, MSHRs: 16}
	m.Prefetcher = config.PrefetchNone
	return m
}

func TestLoadMissThenHit(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	r1 := p.Load(0x1000, 0x400000, 0)
	if r1.Level != LevelDRAM {
		t.Fatalf("cold load level = %v, want DRAM", r1.Level)
	}
	if r1.Done < 200 {
		t.Fatalf("cold load done at %d, faster than DRAM latency", r1.Done)
	}
	r2 := p.Load(0x1000, 0x400000, r1.Done+1)
	if r2.Level != LevelL1 {
		t.Fatalf("second load level = %v, want L1", r2.Level)
	}
	if r2.Done != r1.Done+1+4 {
		t.Fatalf("L1 hit done at %d, want t+4", r2.Done)
	}
}

func TestLoadHitL2AfterL1Eviction(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	done := p.Load(0, 0x400000, 0).Done
	// Blocks 0, 4, 8 share L1 set 0 (4 sets); 2 ways force block 0 out.
	done = p.Load(4*64, 0x400000, done).Done
	done = p.Load(8*64, 0x400000, done).Done
	r := p.Load(0, 0x400000, done)
	if r.Level != LevelL2 {
		t.Fatalf("re-load level = %v, want L2 (L1 evicted, L2 retains)", r.Level)
	}
}

// TestL1RefillDowngradesModifiedL2 pins a known model bug: a load that misses
// the L1 but hits a Modified L2 line re-installs the block as Shared in both
// the L1 and the L2 (fillPrivate inserts into the L2 unconditionally, and an
// insert over a present line overwrites its state). The directory still
// records the core as owner with the L3 line Modified, so the core's next
// store pays an upgrade trip to the L3 for a block it already owns, and the
// L2 copy's dirtiness is lost. The fix flips this test and moves
// mem.writebacks, the store-miss counts and store-buffer stall timing, so it
// rides the one result-moving key-version bump (ROADMAP item 5(d)).
func TestL1RefillDowngradesModifiedL2(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	r := p.StoreAcquire(0, 0x400000, 0)
	if !p.PerformStore(0, 0x400000, r.Done) {
		t.Fatal("store must perform once ownership arrived")
	}
	// Blocks 0, 4 and 8 share L1 set 0 (4 sets, 2 ways), so block 0 leaves
	// the L1; in the L2 (8 sets, 4 ways) block 4 maps elsewhere and block 0
	// stays.
	done := p.Load(4*64, 0x400000, r.Done).Done
	done = p.Load(8*64, 0x400000, done).Done
	if p.L1().Peek(0) != nil {
		t.Fatal("block 0 should have left the L1")
	}
	if l := p.L2().Peek(0); l == nil || l.State != cache.Modified {
		t.Fatal("block 0 should be Modified in the L2 before the reload")
	}
	if r := p.Load(0, 0x400000, done); r.Level != LevelL2 {
		t.Fatalf("reload level = %v, want L2", r.Level)
	}
	if st := p.L2().Peek(0).State; st != cache.Shared {
		t.Fatalf("L2 state after the reload = %v, want S (today's behaviour)", st)
	}
	if dir := s.L3().Peek(0); dir.State != cache.Modified || dir.Owner() != 0 {
		t.Fatalf("L3 line = %v owned by %d, want M owned by core 0", dir.State, dir.Owner())
	}
	if r := p.StoreAcquire(0, 0x400000, done+100); r.Level != LevelL3 {
		t.Fatalf("store after the reload satisfied at %v, want L3 (an upgrade trip for an owned block)", r.Level)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAcquireThenPerform(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	if p.PerformStore(0x2000, 0x400000, 0) {
		t.Fatal("store to absent block must not perform")
	}
	r := p.StoreAcquire(0x2000, 0x400000, 0)
	if r.Level != LevelDRAM {
		t.Fatalf("cold acquire level = %v, want DRAM", r.Level)
	}
	if p.PerformStore(0x2000, 0x400000, r.Done-1) {
		t.Fatal("store must not perform before the fill completes")
	}
	if !p.PerformStore(0x2000, 0x400000, r.Done) {
		t.Fatal("store must perform once ownership arrived")
	}
	if at, writable := p.WritableReadyCycle(0x2000); !writable || at > r.Done {
		t.Fatal("block should be writable after acquire")
	}
}

func TestUpgradeMissAfterLoad(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	r1 := p.Load(0x3000, 0x400000, 0)
	// Block is now Shared: a store needs an upgrade (directory trip), which
	// is cheaper than DRAM but not an L1 hit.
	r2 := p.StoreAcquire(0x3000, 0x400000, r1.Done+1)
	if r2.Level != LevelL3 {
		t.Fatalf("upgrade level = %v, want L3", r2.Level)
	}
	if r2.Done >= r1.Done+1+200 {
		t.Fatal("upgrade should be much faster than a DRAM fetch")
	}
}

func TestPrefetchOwnSuccessful(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	p.PrefetchOwn(mem.BlockOf(0x4000), 0, false)
	if p.SPFIssued != 1 || p.SPFMissToL2 != 1 {
		t.Fatalf("issued/miss = %d/%d, want 1/1", p.SPFIssued, p.SPFMissToL2)
	}
	// Wait long enough for the fill, then the demand store hits.
	if !p.PerformStore(0x4000, 0x400000, 1000) {
		t.Fatal("store should perform against the prefetched block")
	}
	if p.SPFSuccessful != 1 {
		t.Fatalf("SPFSuccessful = %d, want 1", p.SPFSuccessful)
	}
}

func TestPrefetchOwnLate(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	p.PrefetchOwn(mem.BlockOf(0x5000), 0, false)
	// Demand store arrives while the prefetch is still in flight.
	r := p.StoreAcquire(0x5000, 0x400000, 5)
	if !r.LatePrefetch {
		t.Fatal("demand during in-flight prefetch must be late")
	}
	if p.SPFLate != 1 {
		t.Fatalf("SPFLate = %d, want 1", p.SPFLate)
	}
	if p.SPFSuccessful != 0 {
		t.Fatal("late prefetch must not also count successful")
	}
}

func TestPrefetchOwnDiscardedWhenOwned(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	r := p.StoreAcquire(0x6000, 0x400000, 0)
	p.PerformStore(0x6000, 0x400000, r.Done)
	p.PrefetchOwn(mem.BlockOf(0x6000), r.Done+1, false)
	if p.SPFDiscarded != 1 {
		t.Fatalf("SPFDiscarded = %d, want 1 (PopReq)", p.SPFDiscarded)
	}
	if p.SPFMissToL2 != 0 { // the discarded prefetch generated no L2 traffic
		t.Fatalf("SPFMissToL2 = %d, want 0", p.SPFMissToL2)
	}
}

func TestPrefetchOwnEarly(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	// Prefetch block 0, then blast the set with conflicting fills until the
	// prefetched line is evicted unused.
	p.PrefetchOwn(0, 0, false)
	done := uint64(1000)
	for i := 1; i <= 2; i++ {
		done = p.Load(mem.Addr(i*4*64), 0x400000, done).Done
	}
	// Block 0 evicted unused; the demand store now misses and the prefetch
	// counts as early.
	p.StoreAcquire(0, 0x400000, done)
	if p.SPFEarly != 1 {
		t.Fatalf("SPFEarly = %d, want 1", p.SPFEarly)
	}
}

func TestBurstCounted(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	p.PrefetchOwn(1, 0, true)
	p.PrefetchOwn(2, 0, false)
	if p.SPFBurst != 1 || p.SPFIssued != 2 {
		t.Fatalf("burst/issued = %d/%d, want 1/2", p.SPFBurst, p.SPFIssued)
	}
}

func TestTwoCoreDowngrade(t *testing.T) {
	s := New(tiny(), 2)
	w, r := s.Port(0), s.Port(1)
	res := w.StoreAcquire(0x7000, 0x400000, 0)
	w.PerformStore(0x7000, 0x400000, res.Done)
	// Core 1 reads: core 0 must be downgraded to Shared.
	rr := r.Load(0x7000, 0x400000, res.Done+1)
	if rr.Done <= res.Done+1 {
		t.Fatal("remote read must take time")
	}
	l := w.L1().Peek(mem.BlockOf(0x7000))
	if l == nil || l.State != cache.Shared {
		t.Fatalf("writer's copy = %v, want Shared after remote read", l)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoCoreInvalidation(t *testing.T) {
	s := New(tiny(), 2)
	a, b := s.Port(0), s.Port(1)
	ra := a.StoreAcquire(0x8000, 0x400000, 0)
	a.PerformStore(0x8000, 0x400000, ra.Done)
	rb := b.StoreAcquire(0x8000, 0x400000, ra.Done+1)
	if b.PerformStore(0x8000, 0x400000, rb.Done) != true {
		t.Fatal("second core must gain ownership")
	}
	if l := a.L1().Peek(mem.BlockOf(0x8000)); l != nil {
		t.Fatalf("first core still holds %v, want invalidated", l.State)
	}
	if s.Invalidations == 0 {
		t.Fatal("invalidation traffic must be counted")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestWrongPathLoadCountsTraffic(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	tags := p.L1().TagAccesses
	p.WrongPathLoad(0x9000, 0)
	if p.WrongPathLoads != 1 {
		t.Fatal("wrong-path load must be counted")
	}
	if p.L1().TagAccesses <= tags {
		t.Fatal("wrong-path load must cost a tag access")
	}
	if p.LoadMisses != 0 {
		t.Fatal("wrong-path load must not count as a demand miss")
	}
}

// TestOutstandingL1Misses: the "L1D miss pending" signal holds at a cycle
// exactly while the latest fill still in flight there completes later.
func TestOutstandingL1Misses(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	r := p.Load(0xA000, 0x400000, 0)
	if got := p.MaxOutstandingL1Ready(1); got != r.Done {
		t.Fatalf("latest fill in flight at cycle 1 completes at %d, want the miss's %d", got, r.Done)
	}
	if got := p.MaxOutstandingL1Ready(r.Done); got != 0 {
		t.Fatalf("a fill completing at %d is still in flight at %d", got, r.Done)
	}
}

func TestGenericPrefetcherBringsReadOnly(t *testing.T) {
	m := tiny()
	m.Prefetcher = config.PrefetchStream
	s := New(m, 1)
	p := s.Port(0)
	// Train a unit-block stride with loads.
	done := uint64(0)
	for i := 0; i < 8; i++ {
		done = p.Load(mem.Addr(i*64), 0x400000, done).Done
	}
	if p.GPFIssued == 0 {
		t.Fatal("stream prefetcher should have issued prefetches")
	}
	// The prefetched block ahead is readable but not writable: a store
	// still needs an upgrade (the paper's key observation).
	var pfBlock mem.Block
	found := false
	for b := mem.Block(8); b < 16 && !found; b++ {
		if l := p.L1().Peek(b); l != nil && l.State == cache.Shared {
			pfBlock, found = b, true
		}
	}
	if !found {
		t.Skip("no prefetched block retained in the tiny L1")
	}
	if _, writable := p.WritableReadyCycle(mem.AddrOfBlock(pfBlock)); writable {
		t.Fatal("generic prefetch must not grant write permission")
	}
}

func TestRecentSet(t *testing.T) {
	r := newRecentSet(2)
	r.Add(1)
	r.Add(2)
	if !r.Take(1) {
		t.Fatal("1 should be remembered")
	}
	if r.Take(1) {
		t.Fatal("taking twice must fail")
	}
	r.Add(3)
	r.Add(4)
	r.Add(5) // evicts 3
	if r.Take(3) {
		t.Fatal("3 should have been evicted by capacity")
	}
	if !r.Take(4) || !r.Take(5) {
		t.Fatal("4 and 5 should be remembered")
	}
}

func TestRecentSetDuplicates(t *testing.T) {
	r := newRecentSet(4)
	r.Add(7)
	r.Add(7)
	if !r.Take(7) || !r.Take(7) {
		t.Fatal("both occurrences should be takeable")
	}
	if r.Take(7) {
		t.Fatal("third take must fail")
	}
}

// Property: under random single-core traffic the port never corrupts MESI
// bookkeeping, and demand completion times always respect the L1 latency.
func TestSingleCoreRandomTraffic(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(tiny(), 1)
		p := s.Port(0)
		now := uint64(0)
		for _, op := range ops {
			addr := mem.Addr(op%512) * 64
			now += 3
			switch op % 4 {
			case 0:
				r := p.Load(addr, 0x400000, now)
				if r.Done < now+4 {
					return false
				}
			case 1:
				r := p.StoreAcquire(addr, 0x400000, now)
				if r.Done < now+4 {
					return false
				}
			case 2:
				p.PrefetchOwn(mem.BlockOf(addr), now, op%8 == 2)
			default:
				if at, writable := p.WritableReadyCycle(addr); writable && at <= now {
					if !p.PerformStore(addr, 0x400000, now) {
						return false
					}
				}
			}
		}
		return s.CheckCoherence() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with several cores hammering a small shared region, at most one
// core ever holds a block writable (single-writer invariant).
func TestMultiCoreSingleWriter(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(tiny(), 4)
		now := uint64(0)
		for _, op := range ops {
			core := int(op>>8) % 4
			p := s.Port(core)
			addr := mem.Addr(op%16) * 64
			now += 5
			switch op % 3 {
			case 0:
				p.Load(addr, 0x400000, now)
			case 1:
				r := p.StoreAcquire(addr, 0x400000, now)
				p.PerformStore(addr, 0x400000, r.Done)
			default:
				p.PrefetchOwn(mem.BlockOf(addr), now, false)
			}
			if err := s.CheckCoherence(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelDRAM: "DRAM",
	} {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), l.String(), want)
		}
	}
}

func TestNewRejectsBadCoreCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 cores should panic")
		}
	}()
	New(tiny(), 0)
}
