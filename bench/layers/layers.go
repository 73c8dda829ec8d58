// Package layers holds the per-layer drivers of the benchmark: each replays a
// workload's own instruction stream through one package's public API in
// isolation and reports host nanoseconds per operation. The drivers call
// only the long-lived entry points (Reader.Next, Program.SkipTouch,
// Detector.Observe, StoreBuffer.Allocate/Commit/Pop/Forward,
// Cache.Lookup/Insert, Port.Load/StoreAcquire/PerformStore/PrefetchOwn/
// WarmTouch, DRAM.Read, Prefetcher.Observe, TLB.Translate, Core.Run) and
// never Tick/NextEventCycle/SkipTo/IdleTick, so an engine rewrite that
// removes those keeps this package compiling.
//
// A driver sees a colder interleaving than the real run (one layer at a time,
// nothing else in the host caches), so its numbers are a budget estimate for
// the layer, not an identity with the layer's share of a full simulation.
package layers

import (
	"fmt"
	"sort"
	"time"

	"spb/internal/trace"
	"spb/internal/workloads"
)

// Stream is one workload's instruction stream, collected once so that every
// driver replays the same instructions.
type Stream struct {
	Name  string
	Seed  uint64
	Insts []trace.Inst

	// The memory operations of Insts in program order, and its loads and
	// stores alone: a driver's timed loop walks only the operations it
	// measures, so a stream with few stores does not bill its other
	// instructions to them.
	mem, loads, stores []trace.Inst

	build func() trace.Reader
}

func newStream(name string, seed uint64, n int, build func() trace.Reader) Stream {
	s := Stream{Name: name, Seed: seed, Insts: trace.Collect(build(), n), build: build}
	for _, in := range s.Insts {
		switch in.Kind {
		case trace.KindLoad:
			s.loads = append(s.loads, in)
			s.mem = append(s.mem, in)
		case trace.KindStore:
			s.stores = append(s.stores, in)
			s.mem = append(s.mem, in)
		}
	}
	return s
}

// Collect builds the named SPEC-like workload's stream for seed and drains n
// instructions from it.
func Collect(name string, seed uint64, n int) (Stream, error) {
	w, err := workloads.SPECByName(name)
	if err != nil {
		return Stream{}, err
	}
	return newStream(name, seed, n, func() trace.Reader { return w.Build(seed) }), nil
}

// CollectParallel collects n instructions from each of the threads of the
// named PARSEC-like workload.
func CollectParallel(name string, seed uint64, threads, n int) ([]Stream, error) {
	p, err := workloads.PARSECByName(name)
	if err != nil {
		return nil, err
	}
	out := make([]Stream, threads)
	for t := range out {
		out[t] = newStream(fmt.Sprintf("%s/%d", name, t), seed, n,
			func() trace.Reader { return p.Build(seed, threads)[t] })
	}
	return out, nil
}

// Cost is the outcome of one driver over a set of streams: host time and the
// operations it covered, pooled over the streams.
type Cost struct {
	NS  float64 // host nanoseconds (median over repetitions, summed over streams)
	Ops float64 // operations covered
}

// PerOp is nanoseconds per operation (0 when the streams held none).
func (c Cost) PerOp() float64 {
	if c.Ops == 0 {
		return 0
	}
	return c.NS / c.Ops
}

func (c *Cost) add(o Cost) { c.NS += o.NS; c.Ops += o.Ops }

// reps is how often a driver repeats its timed section; the median is kept.
const reps = 3

// timed runs setup (untimed) then body (timed) reps times and returns the
// median host time of body in nanoseconds.
func timed(setup func(), body func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		body()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(ds)
	return ds[reps/2]
}

// pooled applies one per-stream driver to every stream and pools the costs.
func pooled(streams []Stream, f func(Stream) Cost) Cost {
	var c Cost
	for _, s := range streams {
		c.add(f(s))
	}
	return c
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64
