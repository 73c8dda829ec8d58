package cpu

import (
	"testing"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// The BenchmarkCoreTick family measures the steady-state cost of one core
// cycle (the simulator's innermost loop) under contrasting workloads.

// warmTicks runs the core past its cold-start transient (cache fills,
// ring/heap growth) so the timed region exercises only the steady state.
const warmTicks = 50_000

func benchTicks(b *testing.B, c *Core) {
	b.Helper()
	for i := 0; i < warmTicks; i++ {
		c.Tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
	}
}

// foreverMemset is an endless memset burst over a small wrapping region:
// maximal SB pressure, stable working set.
func foreverMemset(pages int) trace.Reader {
	reg := trace.NewMemRegion(0x1000_0000, uint64(pages)*mem.PageSize)
	return program(1, trace.Leaf{Op: trace.OpMemset, Dst: reg, Bytes: uint64(pages) * mem.PageSize, Size: 8, PC: trace.PCLib})
}

func BenchmarkCoreTick(b *testing.B) {
	b.Run("memset-none-sq14", func(b *testing.B) {
		benchTicks(b, build(core.PolicyNone, 14, foreverMemset(4)))
	})
	b.Run("memset-spb-sq28", func(b *testing.B) {
		benchTicks(b, build(core.PolicySPB, 28, foreverMemset(4)))
	})
	b.Run("alu-chain", func(b *testing.B) {
		benchTicks(b, build(core.PolicyAtCommit, 56,
			program(3, trace.Leaf{Op: trace.OpCompute, Compute: trace.ComputeOptions{
				Count: 512, MulFrac: 0.15, DivFrac: 0.02, DepFrac: 0.5,
				BrFrac: 0.18, MissRate: 0.03, PC: trace.PCApp,
			}})))
	})
	b.Run("roms-spb-sq28", func(b *testing.B) {
		w, err := workloads.SPECByName("roms")
		if err != nil {
			b.Fatal(err)
		}
		benchTicks(b, build(core.PolicySPB, 28, w.Build(7)))
	})
}

// BenchmarkCoreTickRun measures whole short runs (Run includes the sleep to
// the event horizon that a bare Tick loop never takes). Each
// iteration releases its machine back to the arena pools, so the steady
// state measures what a sweep pays per point — recycled ROB/cache/table
// arenas, not fresh ones.
func BenchmarkCoreTickRun(b *testing.B) {
	w, err := workloads.SPECByName("roms")
	if err != nil {
		b.Fatal(err)
	}
	m := config.Skylake().WithSQ(28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := memsys.New(m, 1)
		c := New(m.Core, core.PolicySPB, m.SPB, sys.Port(0), trace.Limit(20_000, w.Build(uint64(i))), 7)
		if err := c.Run(20_000); err != nil {
			b.Fatal(err)
		}
		c.Release()
		sys.Release()
	}
}

// TestRunArenaReuseBoundsAllocs tightens the whole-run allocation budget:
// with every pooled structure (ROB, issue/load queues, SB, TLB, cache
// arenas, directory shards, recent-sets) recycled via Release,
// a complete build+run+release cycle must stay far below the ~100 allocs /
// ~16 MB a cold machine costs.
func TestRunArenaReuseBoundsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	w, err := workloads.SPECByName("roms")
	if err != nil {
		t.Fatal(err)
	}
	m := config.Skylake().WithSQ(28)
	cycle := func(seed uint64) {
		sys := memsys.New(m, 1)
		c := New(m.Core, core.PolicySPB, m.SPB, sys.Port(0), trace.Limit(20_000, w.Build(seed)), 7)
		if err := c.Run(20_000); err != nil {
			t.Fatal(err)
		}
		c.Release()
		sys.Release()
	}
	cycle(1) // prime the pools
	var seed uint64 = 2
	avg := testing.AllocsPerRun(10, func() {
		cycle(seed)
		seed++
	})
	if avg > 70 {
		t.Fatalf("build+run+release allocates %.1f per cycle, want ≤ 70 (arena reuse broken?)", avg)
	}
}

// TestCoreSteadyStateZeroAllocs guards the tentpole's allocation-free claim:
// once warm, ticking the core (dispatch, SB drain, cache fills, directory
// updates, occupancy tracking) allocates nothing per simulated instruction.
func TestCoreSteadyStateZeroAllocs(t *testing.T) {
	c := build(core.PolicySPB, 28, foreverMemset(4))
	for i := 0; i < 200_000; i++ {
		c.Tick()
	}
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1_000; i++ {
			c.Tick()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state core loop allocates: %.2f allocs per 1000 ticks", avg)
	}
}
