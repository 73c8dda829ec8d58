package memsys

import (
	"testing"

	"spb/internal/config"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Tests for the generic-prefetcher feedback plumbing: the per-epoch delta
// computation over lastFB snapshots, the pollution path through victimsOfPF
// and the early-prefetch path through evictedPF.

func TestFDPEpochUsesDeltas(t *testing.T) {
	m := tiny()
	m.Prefetcher = config.PrefetchAdaptive
	s := New(m, 1)
	p := s.Port(0)
	ad := p.pf.(*prefetch.Adaptive)
	if ad.Level() != 3 {
		t.Fatalf("starting level = %d, want 3", ad.Level())
	}

	// Epoch 1: accurate and late — ramp up.
	p.GPFIssued, p.GPFUsed, p.GPFLate = 1000, 900, 500
	p.epochAccesses = fdpEpoch - 1
	p.Load(0x10000, 0x400000, 0)
	if ad.Level() != 4 {
		t.Fatalf("level after accurate+late epoch = %d, want 4", ad.Level())
	}
	if want := (prefetch.Feedback{Issued: 1000, Used: 900, Late: 500}); p.lastFB != want {
		t.Fatalf("lastFB = %+v, want %+v", p.lastFB, want)
	}

	// Epoch 2: this epoch alone is wildly inaccurate (acc 0.10), though the
	// cumulative counters still read acc 0.50. Only the delta view throttles.
	p.GPFIssued += 1000
	p.GPFUsed += 100
	p.epochAccesses = fdpEpoch - 1
	p.Load(0x10000, 0x400000, 1000)
	if ad.Level() != 3 {
		t.Fatalf("level = %d, want 3: FDP must see per-epoch deltas, not cumulative counters", ad.Level())
	}
	if want := (prefetch.Feedback{Issued: 2000, Used: 1000, Late: 500}); p.lastFB != want {
		t.Fatalf("lastFB = %+v, want %+v", p.lastFB, want)
	}
	s.Release()
}

func TestPrefetchPollutionCredited(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	// Fill L1 set 0 (2 ways) with demand blocks 0 and 4, then let a generic
	// prefetch of block 8 evict the LRU demand block 0.
	d := p.Load(0, 0x400000, 0).Done
	d = p.Load(4*64, 0x400000, d).Done
	p.prefetchRead(8, d)
	if p.GPFIssued != 1 {
		t.Fatalf("GPFIssued = %d, want 1", p.GPFIssued)
	}
	// The demand miss on the prefetch victim is pollution.
	p.Load(0, 0x400000, d+1000)
	if p.GPFPolluted != 1 {
		t.Fatalf("GPFPolluted = %d, want 1 after a demand miss on the prefetch victim", p.GPFPolluted)
	}
	s.Release()
}

func TestEarlyWritePrefetchCredited(t *testing.T) {
	s := New(tiny(), 1)
	p := s.Port(0)
	// Write-prefetch block 0, evict it unused via two demand fills into the
	// same 2-way set, then let the demand store arrive: the prefetch was
	// early.
	p.PrefetchOwn(0, 0, false)
	d := p.Load(4*64, 0x400000, 0).Done
	d = p.Load(8*64, 0x400000, d).Done
	p.StoreAcquire(0, 0x400000, d+1000)
	if p.SPFEarly != 1 {
		t.Fatalf("SPFEarly = %d, want 1 after the prefetched block was evicted unused", p.SPFEarly)
	}
	s.Release()
}

// drivePort replays a deterministic demand mix (loads and store-acquires
// over strided streams) against a port.
func drivePort(p *Port, phase, n int) {
	t := uint64(phase) * 100
	for i := 0; i < n; i++ {
		j := phase + i
		addr := mem.Addr(uint64(j%3)<<20 + uint64(j/3)*64*uint64(j%3+1))
		if j%4 == 3 {
			r := p.StoreAcquire(addr, uint64(0x400000+j%5*4), t)
			t = r.Done + 1
		} else {
			r := p.Load(addr, uint64(0x400000+j%5*4), t)
			t = r.Done + 1
		}
	}
}
