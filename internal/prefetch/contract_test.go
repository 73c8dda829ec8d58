package prefetch

import (
	"testing"

	"spb/internal/config"
	"spb/internal/mem"
)

// TestObserveContract pins the Prefetcher interface contract for every
// constructible kind: Observe must append to and return out — never nil,
// never clobbering what the caller already holds (the memory system reuses
// the returned slice as its scratch buffer) — and every appended block must
// stay on the triggering access's page. Once its scratch has grown to size,
// Observe allocates nothing: it runs once per demand access of a detailed run
// (DESIGN.md §7, "Allocation-free steady state").
func TestObserveContract(t *testing.T) {
	for _, k := range config.Prefetchers {
		t.Run(k.String(), func(t *testing.T) {
			p := New(k)
			const sentinel = mem.Block(1 << 40)
			out := []mem.Block{sentinel}
			blk := mem.Block(5)
			for i := 0; i < 3000; i++ {
				ev := Event{
					PC:    0x400000 + uint64(i%7)*4,
					Block: blk,
					Miss:  i%3 != 0,
					Store: i%2 == 0,
				}
				out = p.Observe(ev, out)
				if out == nil {
					t.Fatal("Observe returned nil instead of out")
				}
				if len(out) < 1 || out[0] != sentinel {
					t.Fatal("Observe clobbered the caller's existing elements")
				}
				for _, b := range out[1:] {
					if mem.PageOfBlock(b) != mem.PageOfBlock(ev.Block) {
						t.Fatalf("prefetch %d crosses the page of trigger %d", b, ev.Block)
					}
				}
				out = out[:1]
				blk += mem.Block(1 + i%5)
				if i%500 == 499 {
					p.Epoch(Feedback{Issued: 100, Used: 60, Late: 10, Polluted: 2})
				}
			}
			p.Epoch(Feedback{}) // idle epoch must be safe for every kind
			ev := Event{PC: 0x400000, Block: blk, Miss: true}
			if allocs := testing.AllocsPerRun(200, func() {
				out = p.Observe(ev, out[:1])
				ev.Block++
			}); allocs != 0 {
				t.Errorf("Observe allocates %.1f times per call in steady state, want 0", allocs)
			}
		})
	}
}

// TestNoneObservePreservesScratch is the regression for the none prefetcher
// returning nil: the caller's scratch buffer must come back intact.
func TestNoneObservePreservesScratch(t *testing.T) {
	p := New(config.PrefetchNone)
	buf := []mem.Block{7, 8}
	got := p.Observe(Event{Block: 7, Miss: true}, buf)
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("none Observe must return out unchanged, got %v", got)
	}
}
