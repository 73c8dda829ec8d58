package workloads

import (
	"fmt"
	"testing"

	"spb/internal/mem"
	"spb/internal/trace"
)

// Program.Skip re-implements emit's per-op state stepping (RNG draws, chunk
// allocation, cursor arithmetic) without materializing instructions, so any
// divergence between the two is a silent correctness bug in sampled runs:
// the detailed windows after a drained skip would measure a different
// stream. This test drives every workload generator with an adversarial mix
// of Skip and Next against a Next-only twin and requires bit-identical
// instructions at every position — skip lengths are chosen to land inside
// activations, exactly on their boundaries, and across whole phases.

type skipper interface{ Skip(n uint64) }

func checkSkipEquivalence(t *testing.T, name string, mkRef, mkTst func() trace.Reader) {
	t.Helper()
	ref, tst := mkRef(), mkTst()
	sk, ok := tst.(skipper)
	if !ok {
		t.Fatalf("%s: reader %T does not implement Skip", name, tst)
	}
	// Deterministic schedule of skip lengths: primes and powers around the
	// generators' natural burst/phase sizes so boundaries of every kind are
	// hit, plus 0 (must be a no-op).
	lens := []uint64{1, 7, 0, 64, 513, 4096, 31, 2, 12289, 255, 1, 100_003, 8, 3072}
	var want, got trace.Inst
	pos := uint64(0)
	for round := 0; round < 6; round++ {
		for _, k := range lens {
			sk.Skip(k)
			for j := uint64(0); j < k; j++ {
				if !ref.Next(&want) {
					t.Fatalf("%s: reference stream ran dry at %d", name, pos+j)
				}
			}
			pos += k
			// Several instructions after each skip: a divergence in program
			// state surfaces within the following activation or phase pick.
			for j := 0; j < 5; j++ {
				if !ref.Next(&want) || !tst.Next(&got) {
					t.Fatalf("%s: stream ran dry at %d", name, pos)
				}
				if want != got {
					t.Fatalf("%s: instruction %d diverged after Skip:\n  next-only %+v\n  skipped   %+v",
						name, pos, want, got)
				}
				pos++
			}
		}
	}
}

// touchSkipper adapts SkipTouch to the skipper interface while recording
// the footprint it reports, so checkSkipEquivalence exercises the
// touch-reporting path: its extra span arithmetic must not perturb program
// state or RNG consumption.
type touchSkipper struct {
	p      *trace.Program
	loads  map[mem.Block]bool
	stores map[mem.Block]bool
}

func (s *touchSkipper) Skip(n uint64) {
	s.p.SkipTouch(n, func(addr mem.Addr, n uint64, store bool) {
		set := s.loads
		if store {
			set = s.stores
		}
		last := mem.BlockOf(addr + mem.Addr(n-1))
		for b := mem.BlockOf(addr); b <= last; b++ {
			set[b] = true
		}
	})
}

// TestProgramSkipTouchFootprint pins SkipTouch's reported footprint to the
// materialized stream: over the same skipped spans, the set of blocks the
// touch callback covers must equal the set of blocks the skipped load and
// store instructions actually access, per kind. An over-report warms LLC
// lines the program never touches; an under-report recreates the stale-LLC
// bias the touch tier exists to remove.
func TestProgramSkipTouchFootprint(t *testing.T) {
	for _, w := range SPEC() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ref := w.Build(11)
			tst := w.Build(11)
			sk := &touchSkipper{p: tst, loads: map[mem.Block]bool{}, stores: map[mem.Block]bool{}}
			wantLoads, wantStores := map[mem.Block]bool{}, map[mem.Block]bool{}
			var in trace.Inst
			pos := 0
			for round := 0; round < 4; round++ {
				for _, k := range []uint64{3, 513, 64, 12289, 1, 4096, 255} {
					sk.Skip(k)
					for j := uint64(0); j < k; j++ {
						if !ref.Next(&in) {
							t.Fatalf("reference ran dry at %d", pos)
						}
						pos++
						if in.Kind != trace.KindLoad && in.Kind != trace.KindStore {
							continue
						}
						set := wantLoads
						if in.Kind == trace.KindStore {
							set = wantStores
						}
						sz := uint64(in.Size)
						if sz == 0 {
							sz = 1
						}
						last := mem.BlockOf(in.Addr + mem.Addr(sz-1))
						for b := mem.BlockOf(in.Addr); b <= last; b++ {
							set[b] = true
						}
					}
				}
			}
			diff := func(kind string, got, want map[mem.Block]bool) {
				for b := range want {
					if !got[b] {
						t.Fatalf("%s block %#x touched by stream but not reported (have %d, want %d)",
							kind, uint64(b), len(got), len(want))
					}
				}
				for b := range got {
					if !want[b] {
						t.Fatalf("%s block %#x reported but never touched (have %d, want %d)",
							kind, uint64(b), len(got), len(want))
					}
				}
			}
			diff("load", sk.loads, wantLoads)
			diff("store", sk.stores, wantStores)
		})
	}
}

func TestProgramSkipEquivalence(t *testing.T) {
	for _, w := range SPEC() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			checkSkipEquivalence(t, w.Name,
				func() trace.Reader { return w.Build(7) },
				func() trace.Reader { return w.Build(7) })
		})
	}
	// PARSEC readers exercise the Sub/Take path (a private sub-program
	// interleaved with shared phases).
	for _, p := range PARSEC() {
		p := p
		for _, thread := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/t%d", p.Name, thread), func(t *testing.T) {
				checkSkipEquivalence(t, p.Name,
					func() trace.Reader { return p.Build(7, 4)[thread] },
					func() trace.Reader { return p.Build(7, 4)[thread] })
			})
		}
	}
}

// warmEvent is one load or store Program.Warm reports.
type warmEvent struct {
	pc    uint64
	addr  mem.Addr
	store bool
}

// checkWarmEquivalence interleaves Warm, Next and Skip calls of odd budgets on
// one program against a Next-only twin. After every call the two streams must
// stand at the same instruction, and what a Warm call reported must be exactly
// the loads and stores of the instructions it covered, in order, less every
// access that repeats the (PC, block, kind) of the access before it within
// that call — the elision Warm documents.
func checkWarmEquivalence(t *testing.T, mk func() *trace.Program) {
	t.Helper()
	ref, tst := mk(), mk()
	lens := []uint64{1, 7, 0, 63, 513, 4099, 31, 2, 12289, 255, 1, 100_003, 9, 3071}
	var want, got trace.Inst
	var events []warmEvent
	access := func(pc uint64, addr mem.Addr, store bool) {
		events = append(events, warmEvent{pc: pc, addr: addr, store: store})
	}
	pos, call := uint64(0), 0
	for round := 0; round < 4; round++ {
		for _, k := range lens {
			call++
			switch call % 4 {
			case 0: // Skip between Warm calls: the cursors must carry over.
				tst.Skip(k)
				for j := uint64(0); j < k; j++ {
					ref.Next(&want)
				}
			default:
				events = events[:0]
				tst.Warm(k, access)
				var expect []warmEvent
				var last *warmEvent
				for j := uint64(0); j < k; j++ {
					ref.Next(&want)
					if !want.Kind.IsMem() {
						continue
					}
					ev := warmEvent{pc: want.PC, addr: want.Addr, store: want.Kind == trace.KindStore}
					repeat := last != nil && last.pc == ev.pc && mem.BlockOf(last.addr) == mem.BlockOf(ev.addr) && last.store == ev.store
					if last = &ev; !repeat {
						expect = append(expect, ev)
					}
				}
				if len(events) != len(expect) {
					t.Fatalf("Warm(%d) at %d reported %d events, the Next stream has %d", k, pos, len(events), len(expect))
				}
				for j := range expect {
					if events[j] != expect[j] {
						t.Fatalf("Warm(%d) at %d: event %d is %+v, the Next stream has %+v", k, pos, j, events[j], expect[j])
					}
				}
			}
			pos += k
			for j := 0; j < 5; j++ {
				ref.Next(&want)
				tst.Next(&got)
				if want != got {
					t.Fatalf("instruction %d diverged after call %d:\n  next-only %+v\n  walked    %+v", pos, call, want, got)
				}
				pos++
			}
		}
	}
}

func TestProgramWarmEquivalence(t *testing.T) {
	for _, w := range SPEC() {
		t.Run(w.Name, func(t *testing.T) {
			checkWarmEquivalence(t, func() *trace.Program { return w.Build(7) })
		})
	}
	for _, p := range PARSEC() {
		for _, thread := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/t%d", p.Name, thread), func(t *testing.T) {
				checkWarmEquivalence(t, func() *trace.Program { return p.Build(7, 4)[thread] })
			})
		}
	}
}
