package memsys

import (
	"fmt"
	"slices"
	"testing"

	"spb/internal/cache"
	"spb/internal/mem"
)

// residents appends to out every line of every cache of s — each port's L1 and L2,
// then the L3 — in set-major, way order, as the state warming must reproduce:
// block, coherence state and directory state. Fill times (ReadyAt) are
// deliberately absent: a warm fill completes at cycle 0.
func residents(s *System, out []resident) []resident {
	add := func(c *cache.Cache) {
		c.ForEach(func(l *cache.Line) bool {
			out = append(out, resident{c.Name(), l.Block, l.State, l.Owner(), l.Sharers})
			return true
		})
	}
	for _, p := range s.ports {
		add(p.l1)
		add(p.l2)
	}
	add(s.l3)
	return out
}

type resident struct {
	cache   string
	block   mem.Block
	state   cache.State
	owner   int
	sharers uint64
}

// charged is everything of s warming must leave alone: the ports' counters,
// the fabric counters, DRAM traffic and the in-flight miss of every MSHR list.
func charged(s *System) string {
	out := fmt.Sprint(s.Invalidations, s.BackInvals, s.dram.Reads, s.dram.Writes, s.l3.OutstandingAt(0))
	for _, p := range s.ports {
		out += fmt.Sprint(p.PortCounters, p.l1.OutstandingAt(0), p.l2.OutstandingAt(0))
	}
	return out
}

// FuzzWarmIsDemand holds functional warming to the demand path it stands in
// for. The input scripts four bytes per operation: the acting core, a load, a
// store or a touched span, and a block out of 512 (four times the tiny L3,
// with a hot eighth). System A replays the script through WarmLoad, WarmStore
// and WarmTouch; system B through the timed path — Load, StoreAcquire then
// PerformStore once the fill has arrived, and a GetS or GetX at the directory
// for each block of a span — each operation a cycle well past every earlier
// fill. After every operation both systems must hold the same lines in the
// same ways with the same coherence and directory state, and A must have
// charged nothing: no counter, no DRAM access, no outstanding miss.
func FuzzWarmIsDemand(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 0, 9, 1, 0, 0, 2, 1, 0, 70})
	for seed := byte(1); seed <= 12; seed++ {
		script := make([]byte, 4*160)
		x := uint32(seed) * 2654435761
		for i := range script {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			script[i] = byte(x)
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, cores := range []int{1, 2, 4} {
			a, b := New(tiny(), cores), New(tiny(), cores)
			want := charged(a)
			now := uint64(0)
			var ra, rb []resident
			for i := 0; i+4 <= len(script); i += 4 {
				op := script[i]
				core := int(op>>3) % cores
				blk := (int(script[i+1]) | int(script[i+2])<<8) % 512
				if op&4 != 0 {
					blk %= 64
				}
				addr := mem.Addr(blk)*mem.BlockSize + mem.Addr(script[i+3]%mem.BlockSize)
				pa, pb := a.Port(core), b.Port(core)
				const pc = 0x400000
				now += 1 << 20
				switch op % 3 {
				case 0:
					pa.WarmLoad(addr)
					pb.Load(addr, pc, now)
				case 1:
					pa.WarmStore(addr)
					pb.StoreAcquire(addr, pc, now)
					if !pb.PerformStore(addr, pc, now+1<<19) {
						t.Fatalf("cores=%d op %d: the demand store never performed", cores, i/4)
					}
				default:
					n, store := uint64(script[i+3])*5+1, op&0x80 != 0
					pa.WarmTouch(addr, n, store)
					for blk, last := mem.BlockOf(addr), mem.BlockOf(addr+mem.Addr(n-1)); blk <= last; blk++ {
						if store {
							b.charge(b.getX(blk, core), now)
						} else {
							b.charge(b.getS(blk, core), now)
						}
					}
				}
				if ra, rb = residents(a, ra[:0]), residents(b, rb[:0]); !slices.Equal(ra, rb) {
					t.Fatalf("cores=%d op %d (byte %#x, block %d): warm state\n%v\ndemand state\n%v", cores, i/4, op, blk, ra, rb)
				}
				if got := charged(a); got != want {
					t.Fatalf("cores=%d op %d: warming charged %s, want %s", cores, i/4, got, want)
				}
			}
			a.Release()
			b.Release()
		}
	})
}

// TestWarmEvictionIsNoEarlyPrefetch pins where the prefetch taxonomy lives: a
// prefetched line a detailed segment left unused is remembered as an early
// prefetch when a demand fill evicts it, and not when a warm fill does —
// warming keeps no taxonomy, so the recent-eviction sets are the timed
// path's, like the counters they feed.
func TestWarmEvictionIsNoEarlyPrefetch(t *testing.T) {
	for _, warm := range []bool{false, true} {
		s := New(tiny(), 1)
		p := s.Port(0)
		p.PrefetchOwn(0, 10, true)
		// Blocks 4 and 8 share block 0's set of the 2-way, 4-set L1.
		for i, b := range []mem.Block{4, 8} {
			if addr := mem.Addr(b) * mem.BlockSize; warm {
				p.WarmLoad(addr)
			} else {
				p.Load(addr, 0x400000, uint64(1000*(i+1)))
			}
		}
		if p.l1.Peek(0) != nil {
			t.Fatalf("warm=%v: block 0 was not evicted", warm)
		}
		if early := p.evictedPF.Take(0); early == warm {
			t.Errorf("warm=%v: evicted prefetch remembered as early: %v", warm, early)
		}
		s.Release()
	}
}
