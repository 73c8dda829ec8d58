package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/mem"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// referenceWarm is the per-instruction warm loop the warm tier ran before it
// consumed the Program over a budget: one trace.Inst materialized per
// instruction per core, round-robin, the warmMemo consulted on every memory
// access. It is kept here, verbatim, as the oracle of
// TestWarmWalkMatchesPerInstructionReference.
func referenceWarm(m *machine, n uint64, trainPF bool, memos []warmMemo) {
	var in trace.Inst
	for ; n > 0; n-- {
		for i, p := range m.progs {
			if !p.Next(&in) {
				continue
			}
			if !in.Kind.IsMem() {
				continue
			}
			store := in.Kind == trace.KindStore
			b := mem.BlockOf(in.Addr)
			if mm := &memos[i]; mm.valid && mm.block == b && mm.pc == in.PC && (mm.writable || !store) {
				continue
			}
			m.dtlbs[i].Warm(in.Addr)
			port := m.sys.Port(i)
			var hit bool
			if store {
				hit = port.WarmStore(in.Addr)
			} else {
				hit = port.WarmLoad(in.Addr)
			}
			if trainPF {
				port.WarmObserve(in.PC, in.Addr, !hit, store)
			}
			memos[i] = warmMemo{block: b, pc: in.PC, writable: store, valid: true}
			for j := range memos {
				if j != i {
					memos[j].valid = false
				}
			}
		}
	}
}

// warmWalkSegments are the warm segments both sides replay, in order: lengths
// that leave and re-enter every leaf kind mid-activation (a memo and the
// walk's own same-block elision both start afresh at a segment's first
// instruction), and one longer than progressEvery, so the production side also
// crosses a chunk edge inside a segment with its memo kept.
var warmWalkSegments = []uint64{1, 7, 1000, 4099, 2*progressEvery + 11, 7}

// TestWarmWalkMatchesPerInstructionReference: machine.functional over a warm
// segment leaves the machine exactly where the per-instruction loop does —
// memory system and directory, prefetcher tables, TLBs, stream cursors,
// consumed count — and every stream's next instruction is the same, on every
// workload, with the prefetchers trained or left alone, under every
// prefetcher kind, on one core and on eight. The walk makes every branch
// direction draw the reference makes (Program.Advance), so the "bp=true" case
// of each (branch path) also runs both machines on through one detailed
// segment and compares what their cores count there — the mispredicts they
// charge from the streams' statistical branch flags among it.
func TestWarmWalkMatchesPerInstructionReference(t *testing.T) {
	type point struct {
		workload string
		cores    int
	}
	var points []point
	for _, w := range workloads.SPEC() {
		points = append(points, point{w.Name, 1})
	}
	for _, p := range workloads.PARSEC() {
		points = append(points, point{p.Name, 8})
	}
	for _, pt := range points {
		// Workloads run side by side: each owns its machines.
		t.Run(fmt.Sprintf("%s/%d", pt.workload, pt.cores), func(t *testing.T) {
			t.Parallel()
			for _, trainPF := range []bool{false, true} {
				kinds := config.Prefetchers
				if !trainPF {
					// The prefetchers are not fed: one kind shows they stay cold.
					kinds = kinds[:1]
				}
				for _, kind := range kinds {
					for _, bp := range []bool{false, true} {
						t.Run(fmt.Sprintf("train=%v/%v/bp=%v", trainPF, kind, bp), func(t *testing.T) {
							checkWarmWalk(t, RunSpec{
								Workload: pt.workload, Cores: pt.cores, SQSize: 14, Seed: 3,
								Prefetcher: kind,
							}.normalize(), trainPF, bp)
						})
					}
				}
			}
		})
	}
}

func checkWarmWalk(t *testing.T, spec RunSpec, trainPF, branchPath bool) {
	ref, err := newMachine(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.release()
	got, err := newMachine(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer got.release()
	for _, n := range warmWalkSegments {
		referenceWarm(ref, n, trainPF, make([]warmMemo, len(ref.progs)))
		ref.consumed += n
		if err := got.functional(context.Background(), segment{kind: segWarm, n: n, trainPF: trainPF}); err != nil {
			t.Fatal(err)
		}
	}
	want, have := ref.state(), got.state()
	if !sameLines(want, have) {
		t.Error("cache lines differ from the per-instruction reference's")
	}
	if !reflect.DeepEqual(want, have) {
		t.Errorf("machine state differs from the per-instruction reference's (%s)", stateDiff(want, have))
	}
	for i := range ref.progs {
		if !reflect.DeepEqual(ref.sys.Port(i).Prefetcher(), got.sys.Port(i).Prefetcher()) {
			t.Errorf("core %d prefetcher differs from the per-instruction reference's", i)
		}
	}
	if branchPath {
		checkDetailAfterWarm(t, ref, got)
		return
	}
	var a, b trace.Inst
	for i := range ref.progs {
		for k := 0; k < 3; k++ {
			ref.progs[i].Next(&a)
			got.progs[i].Next(&b)
			if a != b {
				t.Errorf("core %d instruction +%d after the segments: reference %+v, walk %+v", i, k, a, b)
			}
		}
	}
}

// checkDetailAfterWarm runs both warmed machines through the same detailed
// segment and compares the counters it measures.
func checkDetailAfterWarm(t *testing.T, ref, got *machine) {
	t.Helper()
	seg := segment{kind: segDetail, n: 500, to: math.MaxUint64}
	rr, rg := &run{m: ref}, &run{m: got}
	for _, r := range []*run{rr, rg} {
		if err := r.detail(context.Background(), seg); err != nil {
			t.Fatal(err)
		}
	}
	if rr.cur.CPU.Mispredicts != rg.cur.CPU.Mispredicts {
		t.Errorf("mispredicts in the detailed segment: reference %d, walk %d", rr.cur.CPU.Mispredicts, rg.cur.CPU.Mispredicts)
	}
	if !reflect.DeepEqual(rr.cur, rg.cur) {
		t.Errorf("detailed segment after the walk differs from the reference's: %+v vs %+v", rr.cur, rg.cur)
	}
}

// sameLines compares the cache records of two machine states — most of a
// state's bytes — and drops them from both, so that a difference there is
// reported as the lines' and reflect.DeepEqual is left with the rest.
func sameLines(a, b *machineState) bool {
	same := true
	drop := func(x, y *cache.Snapshot) {
		same = same && bytes.Equal(x.Records, y.Records)
		x.Records, y.Records = nil, nil
	}
	drop(a.Sys.L3, b.Sys.L3)
	for i := range a.Sys.Ports {
		drop(a.Sys.Ports[i].L1, b.Sys.Ports[i].L1)
		drop(a.Sys.Ports[i].L2, b.Sys.Ports[i].L2)
	}
	return same
}

// stateDiff names the parts of two machine states that differ.
func stateDiff(a, b *machineState) string {
	var parts []string
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"memory system", a.Sys, b.Sys},
		{"TLBs", a.DTLBs, b.DTLBs},
		{"consumed", a.Consumed, b.Consumed},
		{"cycle base", a.CycleBase, b.CycleBase},
		{"stream cursors", a.progs, b.progs},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			parts = append(parts, f.name)
		}
	}
	return fmt.Sprint(parts)
}

// TestWarmSteadyStateZeroAllocs: once a warm segment's sink is built, warming
// allocates nothing — not per chunk (the walk's own sink stays on Program.Warm's
// stack) and not per access — on one core, where the walk takes the whole
// chunk, and on eight, where it is entered once per instruction.
func TestWarmSteadyStateZeroAllocs(t *testing.T) {
	for _, spec := range []RunSpec{
		{Workload: "bwaves", SQSize: 14, Prefetcher: config.PrefetchHybrid},
		{Workload: "dedup", Cores: 8, SQSize: 14},
	} {
		m, err := newMachine(spec.normalize(), nil)
		if err != nil {
			t.Fatal(err)
		}
		w := m.newWarmer(true)
		w.warm(50_000) // grow the prefetchers' scratch buffers to size
		if avg := testing.AllocsPerRun(20, func() { w.warm(1_000) }); avg != 0 {
			t.Errorf("%s/%d: warming allocates: %.2f allocs per 1000 instructions per core", spec.Workload, m.spec.Cores, avg)
		}
		m.release()
	}
}
