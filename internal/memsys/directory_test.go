package memsys

import (
	"fmt"
	"math/rand"
	"testing"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/mem"
)

// The coherence directory has no table of its own: a block's owner and
// sharers live in its L3 line. That is exact only while three things hold,
// and these tests are what says they do.

// auditDirectory checks, for every block in any private cache: inclusion (the
// L3 holds it too — DESIGN.md §6), directory conservativeness (its L3 line
// names the core as owner or sharer, so an L3 eviction or a remote write
// finds the copy), and that a writable private copy belongs to the recorded
// owner.
func auditDirectory(s *System) error {
	if err := s.CheckCoherence(); err != nil {
		return err
	}
	var err error
	for _, p := range s.ports {
		for _, c := range []*cache.Cache{p.l1, p.l2} {
			c.ForEach(func(l *cache.Line) bool {
				dir := s.l3.Peek(l.Block)
				switch {
				case dir == nil:
					err = fmt.Errorf("inclusion: core %d %s holds %#x, the L3 does not", p.id, c.Name(), l.Block)
				case dir.Holders()&(1<<uint(p.id)) == 0:
					err = fmt.Errorf("directory: core %d %s holds %#x, its L3 line names owner %d sharers %#x",
						p.id, c.Name(), l.Block, dir.Owner(), dir.Sharers)
				case l.State.Writable() && dir.Owner() != p.id:
					err = fmt.Errorf("directory: core %d %s holds %#x writable, the recorded owner is %d",
						p.id, c.Name(), l.Block, dir.Owner())
				}
				return err == nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// TestDirectoryInvariantsUnderRandomTraffic drives 1- and 4-core systems of
// the tiny geometry (128 L3 lines, so evictions and back-invalidations are
// constant) with 120k random operations per configuration — demand loads,
// StoreAcquire + PerformStore, PrefetchOwn, ForcePerform, the functional
// warming entry points and WarmTouch spans — with and without the stream
// prefetcher, auditing after every fourth operation.
func TestDirectoryInvariantsUnderRandomTraffic(t *testing.T) {
	const ops, auditEvery = 120_000, 4
	for _, cores := range []int{1, 4} {
		for _, pf := range []config.PrefetcherKind{config.PrefetchNone, config.PrefetchStream} {
			t.Run(fmt.Sprintf("cores=%d/%s", cores, pf), func(t *testing.T) {
				m := tiny()
				m.Prefetcher = pf
				s := New(m, cores)
				defer s.Release()
				rng := rand.New(rand.NewSource(int64(cores)*100 + int64(pf)))
				now := uint64(0)
				for i := 0; i < ops; i++ {
					p := s.Port(rng.Intn(cores))
					// 512 blocks: four times the L3, with a hot eighth.
					blk := rng.Intn(512)
					if rng.Intn(3) == 0 {
						blk = rng.Intn(64)
					}
					addr := mem.Addr(blk)*mem.BlockSize + mem.Addr(rng.Intn(mem.BlockSize))
					pc := uint64(0x400000 + rng.Intn(8)*4)
					now += uint64(rng.Intn(6))
					switch op := rng.Intn(16); {
					case op < 5:
						p.Load(addr, pc, now)
					case op < 9:
						if !p.PerformStore(addr, pc, now) {
							r := p.StoreAcquire(addr, pc, now)
							p.PerformStore(addr, pc, r.Done)
						}
					case op < 11:
						p.PrefetchOwn(mem.BlockOf(addr), now, op == 10)
					case op < 12:
						p.ForcePerform(addr, pc, now)
					case op < 13:
						p.WrongPathLoad(addr, now)
					case op < 14:
						p.WarmLoad(addr)
					case op < 15:
						p.WarmStore(addr)
					default:
						p.WarmTouch(addr, uint64(1+rng.Intn(6*mem.BlockSize)), rng.Intn(2) == 0)
					}
					if i%auditEvery == 0 {
						if err := auditDirectory(s); err != nil {
							t.Fatalf("after op %d: %v", i, err)
						}
					}
				}
				if s.BackInvals == 0 || s.L3().Evictions == 0 {
					t.Fatalf("traffic never evicted from the L3 (evictions %d, back-invalidations %d)",
						s.L3().Evictions, s.BackInvals)
				}
				if cores > 1 && s.Invalidations == 0 {
					t.Fatal("traffic never invalidated a remote copy")
				}
			})
		}
	}
}

// TestL3MissEvictionPathZeroAllocs guards the allocation-free steady state of
// the path the in-line directory shortened: an L3 miss that evicts a line
// other cores hold (victim copy, back-invalidation, DRAM), with every level's
// MSHR list full so each miss also waits for the earliest fill.
func TestL3MissEvictionPathZeroAllocs(t *testing.T) {
	s := New(tiny(), 2)
	defer s.Release()
	next, now := mem.Block(0), uint64(0)
	batch := func() {
		for k := 0; k < 256; k++ {
			addr := mem.Addr(next) * mem.BlockSize
			next++
			now++ // far slower than DRAM answers: the MSHRs stay full
			s.Port(0).Load(addr, 0x400000, now)
			if k%2 == 0 {
				r := s.Port(1).StoreAcquire(addr, 0x400004, now)
				s.Port(1).PerformStore(addr, 0x400004, r.Done)
			}
		}
	}
	batch() // fill the caches and grow the MSHR lists to their working size
	before := s.BackInvals
	if avg := testing.AllocsPerRun(50, batch); avg != 0 {
		t.Fatalf("L3 miss + eviction path allocates: %.2f allocs per 256-block batch", avg)
	}
	if s.BackInvals == before {
		t.Fatal("the batches never back-invalidated: the path under guard did not run")
	}
}
