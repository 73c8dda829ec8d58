package layers

import (
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/cpu"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/storebuf"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// TraceNext times Reader.Next over a freshly built stream.
func TraceNext(streams []Stream) Cost {
	return pooled(streams, func(s Stream) Cost {
		n := len(s.Insts)
		var r trace.Reader
		var in trace.Inst
		ns := timed(func() { r = s.build() }, func() {
			for i := 0; i < n; i++ {
				r.Next(&in)
			}
		})
		sink += in.PC
		return Cost{ns, float64(n)}
	})
}

// TraceSkip times Program.SkipTouch (footprint callback attached, as the
// sampled engine drives it) over 16x the collected length: skipping is far
// cheaper per instruction than Next, so it needs the longer run to time.
func TraceSkip(streams []Stream) Cost {
	return pooled(streams, func(s Stream) Cost {
		n := uint64(len(s.Insts)) * 16
		var p *trace.Program
		var touched uint64
		ns := timed(func() { p, _ = s.build().(*trace.Program) }, func() {
			if p != nil {
				p.SkipTouch(n, func(_ mem.Addr, span uint64, _ bool) { touched += span })
			}
		})
		sink += touched
		if p == nil {
			return Cost{}
		}
		return Cost{ns, float64(n)}
	})
}

// Mix reports the share of memory operations and of stores in the streams.
func Mix(streams []Stream) (memFrac, storeFrac float64) {
	var n, memOps, stores float64
	for _, s := range streams {
		n += float64(len(s.Insts))
		memOps += float64(len(s.mem))
		stores += float64(len(s.stores))
	}
	if n == 0 {
		return 0, 0
	}
	return memOps / n, stores / n
}

// WorkloadBuild times Workload.Build (Parallel.Build for a PARSEC-like
// stream), in nanoseconds per build.
func WorkloadBuild(streams []Stream) Cost {
	return pooled(streams, func(s Stream) Cost {
		const k = 20
		ns := timed(nil, func() {
			for i := 0; i < k; i++ {
				if s.build() == nil {
					sink++
				}
			}
		})
		return Cost{ns, k}
	})
}

// CPUResult is the inclusive cost of the core model over the streams.
type CPUResult struct {
	Cost           // Ops = committed instructions
	Cycles float64 // simulated cycles covered
}

// CPURun times cpu.New + Core.Run on a fresh memsys port: the core model
// inclusive of everything below it.
func CPURun(streams []Stream, policy core.Policy, sq int) (CPUResult, error) {
	machine := config.Skylake().WithSQ(sq)
	var out CPUResult
	for _, s := range streams {
		n := uint64(len(s.Insts))
		var cycles uint64
		var runErr error
		ns := timed(nil, func() {
			sys := memsys.New(machine, 1)
			c := cpu.New(machine.Core, policy, machine.SPB, sys.Port(0),
				trace.Limit(n, trace.NewSliceReader(s.Insts)), s.Seed)
			if err := c.Run(n); err != nil {
				runErr = err
			}
			cycles = c.St.Cycles
			c.Release()
			sys.Release()
		})
		if runErr != nil {
			return out, runErr
		}
		out.add(Cost{ns, float64(n)})
		out.Cycles += float64(cycles)
	}
	return out, nil
}

// replaySB drives a store buffer with memory operations in program order:
// a store is allocated (once the buffer is half full the oldest is committed
// and popped first) and, when forward is set, a load searches the stores
// buffered at that point.
func replaySB(sb *storebuf.StoreBuffer, memOps []trace.Inst, forward bool) {
	half := sb.Capacity() / 2
	var oldest uint64
	for i := range memOps {
		in := &memOps[i]
		if in.Kind == trace.KindStore {
			if sb.Len() > half {
				sb.Commit(oldest)
				oldest++
				sb.Pop()
			}
			sb.Allocate(in.Addr, in.Size, in.PC)
		} else if forward {
			sink += uint64(sb.Forward(in.Addr, in.Size, sb.TailSeq()))
		}
	}
}

// StoreBuffer times the store lifecycle (Allocate + Commit + Pop, per store)
// and the load-side CAM search (Forward, per load). Forward's cost is the
// difference between a replay with and without the Forward calls, since the
// search result depends on the stores buffered at that instant and cannot be
// batched apart from them.
func StoreBuffer(streams []Stream, capacity int) (op, forward Cost) {
	for _, s := range streams {
		var sb *storebuf.StoreBuffer
		fresh := func() { sb = storebuf.New(capacity) }
		plain := timed(fresh, func() { replaySB(sb, s.stores, false) })
		both := timed(fresh, func() { replaySB(sb, s.mem, true) })
		op.add(Cost{plain, float64(len(s.stores))})
		forward.add(Cost{max(0, both-plain), float64(len(s.loads))})
	}
	return op, forward
}

// DetectorObserve times Detector.Observe over every store of the streams.
func DetectorObserve(streams []Stream, windowN int) Cost {
	return pooled(streams, func(s Stream) Cost {
		var d *core.Detector
		ns := timed(func() { d = core.NewDetector(windowN, false) }, func() {
			for i := range s.stores {
				if _, ok := d.Observe(s.stores[i].Addr, s.stores[i].Size); ok {
					sink++
				}
			}
		})
		return Cost{ns, float64(len(s.stores))}
	})
}

// TLBTranslate times TLB.Translate over every memory operation.
func TLBTranslate(streams []Stream) Cost {
	return pooled(streams, func(s Stream) Cost {
		var t *tlb.TLB
		ns := timed(func() {
			if t != nil {
				t.Release()
			}
			t = tlb.New(tlb.TableI())
		}, func() {
			for i := range s.mem {
				sink += t.Translate(s.mem[i].Addr)
			}
		})
		t.Release()
		return Cost{ns, float64(len(s.mem))}
	})
}
