package layers

import (
	"time"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/prefetch"
	"spb/internal/trace"
)

// access is one memory operation of a stream with the L1 outcome a private
// L1-sized cache would give it; the prefetcher drivers need the miss flag.
type access struct {
	block mem.Block
	pc    uint64
	store bool
	miss  bool
}

func newL1() *cache.Cache {
	c := config.Skylake().L1D
	return cache.New("L1D", c.SizeBytes, c.Ways, c.MSHRs)
}

// classify replays the stream's memory operations against an L1-geometry
// cache (untimed) and records which of them miss.
func classify(s Stream) []access {
	l1 := newL1()
	defer l1.Release()
	out := make([]access, 0, len(s.mem))
	for i := range s.mem {
		in := &s.mem[i]
		b := mem.BlockOf(in.Addr)
		miss := l1.Lookup(b, true) == nil
		if miss {
			l1.Insert(b, cache.Exclusive, 0, false, false)
		}
		out = append(out, access{b, in.PC, in.Kind == trace.KindStore, miss})
	}
	return out
}

// Cache times Cache.Lookup (every memory operation, against the cache as the
// stream leaves it) and Cache.Insert (the stream's misses, in order, into an
// empty cache) on an L1-geometry cache.
func Cache(streams []Stream) (lookup, insert Cost) {
	for _, s := range streams {
		acc := classify(s)
		var c *cache.Cache
		misses := 0
		fill := func() {
			if c != nil {
				c.Release()
			}
			c = newL1()
		}
		ins := timed(fill, func() {
			misses = 0
			for i := range acc {
				if acc[i].miss {
					c.Insert(acc[i].block, cache.Exclusive, uint64(i), false, false)
					misses++
				}
			}
		})
		look := timed(nil, func() {
			for i := range acc {
				if c.Lookup(acc[i].block, true) != nil {
					sink++
				}
			}
		})
		c.Release()
		lookup.add(Cost{look, float64(len(acc))})
		insert.add(Cost{ins, float64(misses)})
	}
	return lookup, insert
}

// clockStep is how far the drivers' simulated clock advances per memory
// operation: about one operation every third instruction at an IPC near one.
const clockStep = 3

// MemsysCosts are the per-operation costs of one core's port.
type MemsysCosts struct {
	Load, Store, PrefetchOwn, WarmTouch Cost
	NewRelease, Snapshot, Restore       Cost
}

// Memsys replays the streams through a single-core memory system: loads
// alone (Port.Load), stores alone (PerformStore, and StoreAcquire when the
// block is absent or read-only, as the SB head does), one PrefetchOwn per
// store (the at-commit policy's request), and the stream's skipped footprint
// through WarmTouch. The clock advances clockStep cycles per operation and
// jumps to the fill time on a store miss. Snapshot and Restore are timed on the
// system as the store replay leaves it; NewRelease times New + Release.
func Memsys(streams []Stream) MemsysCosts {
	machine := config.Skylake().WithSQ(14)
	var out MemsysCosts
	for _, s := range streams {
		var sys *memsys.System
		fresh := func() {
			if sys != nil {
				sys.Release()
			}
			sys = memsys.New(machine, 1)
		}
		ns := timed(fresh, func() {
			p, t := sys.Port(0), uint64(0)
			for i := range s.loads {
				t += clockStep
				sink += p.Load(s.loads[i].Addr, s.loads[i].PC, t).Done
			}
		})
		out.Load.add(Cost{ns, float64(len(s.loads))})

		ns = timed(fresh, func() {
			p, t := sys.Port(0), uint64(0)
			for i := range s.stores {
				t += clockStep
				if in := &s.stores[i]; !p.PerformStore(in.Addr, in.PC, t) {
					t = p.StoreAcquire(in.Addr, in.PC, t).Done
					p.PerformStore(in.Addr, in.PC, t)
				}
			}
		})
		out.Store.add(Cost{ns, float64(len(s.stores))})

		var snap *memsys.SystemSnapshot
		out.Snapshot.add(Cost{timed(nil, func() { snap = sys.Snapshot() }), 1})
		out.Restore.add(Cost{timed(nil, func() { sys.Restore(snap) }), 1})

		ns = timed(fresh, func() {
			p, t := sys.Port(0), uint64(0)
			for i := range s.stores {
				t += clockStep
				p.PrefetchOwn(mem.BlockOf(s.stores[i].Addr), t, false)
			}
		})
		out.PrefetchOwn.add(Cost{ns, float64(len(s.stores))})

		// The footprint SkipTouch reports for the same stretch of the stream,
		// recorded first so that only WarmTouch is inside the timer.
		type touch struct {
			addr  mem.Addr
			n     uint64
			store bool
		}
		var touches []touch
		blocks := 0
		if p, ok := s.build().(*trace.Program); ok {
			p.SkipTouch(uint64(len(s.Insts)), func(a mem.Addr, n uint64, st bool) {
				touches = append(touches, touch{a, n, st})
				if n > 0 {
					blocks += int(mem.BlockOf(a+mem.Addr(n-1))-mem.BlockOf(a)) + 1
				}
			})
		}
		ns = timed(fresh, func() {
			p := sys.Port(0)
			for _, tc := range touches {
				p.WarmTouch(tc.addr, tc.n, tc.store)
			}
		})
		out.WarmTouch.add(Cost{ns, float64(blocks)})
		sys.Release()

		const k = 5
		ns = timed(nil, func() {
			for i := 0; i < k; i++ {
				memsys.New(machine, 1).Release()
			}
		})
		out.NewRelease.add(Cost{ns, k})
	}
	return out
}

// MemsysShared replays memory operations through an 8-port memory system so
// that lines are shared, downgraded and invalidated. With eight streams (the
// threads of a PARSEC-like workload) each thread drives its own port; with
// fewer, operation i of a stream is issued from port i mod 8, so the ports
// contend for the same lines. The cost is per memory operation.
func MemsysShared(streams []Stream) Cost {
	const ports = 8
	machine := config.Skylake().WithSQ(14)
	if len(streams) == 0 {
		return Cost{}
	}
	n := 0
	for _, s := range streams {
		n = max(n, len(s.mem))
	}
	var sys *memsys.System
	ops := 0
	ns := timed(func() {
		if sys != nil {
			sys.Release()
		}
		sys = memsys.New(machine, ports)
	}, func() {
		ops = 0
		t := uint64(0)
		for i := 0; i < n; i++ {
			t += clockStep
			for k, s := range streams {
				if i >= len(s.mem) {
					continue
				}
				in := &s.mem[i]
				p := sys.Port(k % ports)
				if len(streams) < ports {
					p = sys.Port((k + i) % ports)
				}
				if in.Kind == trace.KindLoad {
					sink += p.Load(in.Addr, in.PC, t).Done
				} else if !p.PerformStore(in.Addr, in.PC, t) {
					done := p.StoreAcquire(in.Addr, in.PC, t).Done
					p.PerformStore(in.Addr, in.PC, done)
				}
				ops++
			}
		}
	})
	sys.Release()
	return Cost{ns, float64(ops)}
}

// DRAMRead times DRAM.Read at the request spacing of the streams' L1 misses
// (one request per miss, the clock advancing clockStep cycles per memory
// operation).
func DRAMRead(streams []Stream) Cost {
	d := config.Skylake().DRAM
	return pooled(streams, func(s Stream) Cost {
		acc := classify(s)
		var m *dram.DRAM
		reads := 0
		ns := timed(func() { m = dram.New(d.LatencyCyc, d.CyclesPerBlock, d.MaxOutstanding) }, func() {
			reads = 0
			for i := range acc {
				if acc[i].miss {
					sink += m.Read(uint64(i) * clockStep)
					reads++
				}
			}
		})
		return Cost{ns, float64(reads)}
	})
}

// PrefetchCost is one engine's observe cost and how much it asks for.
type PrefetchCost struct {
	Cost           // Ops = events observed
	Issued float64 // blocks the engine asked to prefetch
}

// PrefetchObserve times Prefetcher.Observe for one engine over every memory
// operation of the streams, with the L1 hit/miss outcome classify gives.
func PrefetchObserve(streams []Stream, kind config.PrefetcherKind) PrefetchCost {
	var out PrefetchCost
	for _, s := range streams {
		acc := classify(s)
		var pf prefetch.Prefetcher
		buf := make([]mem.Block, 0, 64)
		issued := 0
		ns := timed(func() { pf = prefetch.New(kind) }, func() {
			issued = 0
			for i := range acc {
				a := &acc[i]
				buf = pf.Observe(prefetch.Event{PC: a.pc, Block: a.block, Miss: a.miss, Store: a.store}, buf[:0])
				issued += len(buf)
			}
		})
		out.add(Cost{ns, float64(len(acc))})
		out.Issued += float64(issued)
	}
	return out
}

// Repeat times k calls of body and returns the cost per call.
func Repeat(k int, body func()) Cost {
	t0 := time.Now()
	for i := 0; i < k; i++ {
		body()
	}
	return Cost{float64(time.Since(t0).Nanoseconds()), float64(k)}
}
