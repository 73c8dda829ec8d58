// Package config defines the machine configurations of the paper: the
// Skylake-X system of Table I used for every main experiment, the five core
// micro-architectures of Table II used by the core-aggressiveness sweep
// (Fig. 17), and the knobs varied across experiments (store-buffer size,
// store-prefetch policy, generic L1 prefetcher scheme, SPB window N).
package config

import "fmt"

// PrefetcherKind selects the generic L1 data prefetcher (§VI.D).
type PrefetcherKind int

const (
	// PrefetchStream is the baseline stride/stream prefetcher of Table I.
	PrefetchStream PrefetcherKind = iota
	// PrefetchAggressive is the always-aggressive scheme of Srinath et al.
	PrefetchAggressive
	// PrefetchAdaptive is the feedback-directed adaptive scheme of
	// Srinath et al. (HPCA 2007).
	PrefetchAdaptive
	// PrefetchNone disables the generic L1 prefetcher.
	PrefetchNone
	// PrefetchBOP is the Best-Offset prefetcher (Michaud, HPCA 2016):
	// offset scoring over a recent-requests table with phase-based
	// best-offset election.
	PrefetchBOP
	// PrefetchDSPatch is a DSPatch-style dual spatial-pattern prefetcher
	// (Bera et al., MICRO 2019): per-page access bitmaps merged into
	// coverage-biased and accuracy-biased trigger-relative patterns, with
	// feedback-directed selection between the two.
	PrefetchDSPatch
	// PrefetchHybrid arbitrates a shared prefetch-issue budget across the
	// stream, BOP and DSPatch engines by per-epoch accuracy feedback.
	PrefetchHybrid
)

func (k PrefetcherKind) String() string {
	switch k {
	case PrefetchStream:
		return "stream"
	case PrefetchAggressive:
		return "aggressive"
	case PrefetchAdaptive:
		return "adaptive"
	case PrefetchNone:
		return "none"
	case PrefetchBOP:
		return "bop"
	case PrefetchDSPatch:
		return "dspatch"
	case PrefetchHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("PrefetcherKind(%d)", int(k))
}

// Valid reports whether k names an implemented prefetcher. Specs arrive from
// decoded wire input (HTTP bodies, the job journal), so the kind must be
// validated before it reaches the prefetcher constructor.
func (k PrefetcherKind) Valid() bool {
	return k >= PrefetchStream && k <= PrefetchHybrid
}

// PrefetcherNames is the pipe-separated list of valid prefetcher names, for
// flag help strings and error messages.
const PrefetcherNames = "stream|aggressive|adaptive|none|bop|dspatch|hybrid"

// Prefetchers lists every prefetcher kind in declaration order.
var Prefetchers = []PrefetcherKind{
	PrefetchStream, PrefetchAggressive, PrefetchAdaptive, PrefetchNone,
	PrefetchBOP, PrefetchDSPatch, PrefetchHybrid,
}

// ParsePrefetcher maps a prefetcher name (the String() form) back to the
// kind. Shared by CLI flags and the spbd HTTP API.
func ParsePrefetcher(s string) (PrefetcherKind, error) {
	for _, k := range Prefetchers {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown prefetcher %q (want %s)", s, PrefetcherNames)
}

// CoreConfig holds the out-of-order core parameters (Table I core details
// and the Table II sensitivity configurations).
type CoreConfig struct {
	Name string

	// Width is the per-stage back-end width (dispatch, issue and commit
	// are all Width instructions per cycle, as in Table I).
	Width int

	ROBSize int // re-order buffer entries
	IQSize  int // issue queue entries
	LQSize  int // load queue entries
	SQSize  int // store queue / store buffer entries (the SB of the paper)

	// FetchQueue models the decoded-uop buffer between the front end and
	// rename; it bounds how far fetch runs ahead.
	FetchQueue int

	// Instruction latencies (cycles), as measured by Fog and used in the
	// paper's gem5 Skylake-X model.
	IntAddLat int
	IntMulLat int
	IntDivLat int
	FPAddLat  int
	FPMulLat  int
	FPDivLat  int

	// MispredictPenalty is the front-end refill delay after a mispredicted
	// branch resolves.
	MispredictPenalty int

	// BranchMissRate is the fraction of branches mispredicted when the
	// workload does not specify its own rate; the L-TAGE predictor of
	// Table I is modelled statistically per workload.
	BranchMissRate float64
}

// CacheConfig holds the parameters of one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	LatencyCyc int // hit latency, request to data
	MSHRs      int // outstanding-miss registers
}

// Sets returns the number of sets implied by size and associativity
// (64-byte blocks).
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (64 * c.Ways)
}

// DRAMConfig holds the main-memory model parameters.
type DRAMConfig struct {
	LatencyCyc     int // row access latency seen past the L3
	CyclesPerBlock int // service interval: bandwidth = 64B / (this / 2GHz)
	MaxOutstanding int // memory-controller queue depth
}

// TLBConfig holds the data-TLB parameters (Table I: 8-way, 1 KB of entry
// storage = 128 entries). The TLB is a cache array of pages, so Ways is at
// most MaxCacheWays too.
type TLBConfig struct {
	Entries int
	Ways    int
	WalkLat int // page-walk latency in cycles
}

// SPBConfig holds the parameters of the store-prefetch-burst detector.
type SPBConfig struct {
	// WindowN is the number of committed stores between saturating-counter
	// checks. The paper's sensitivity analysis (§IV.C) picks 48.
	WindowN int
	// DynamicSize enables the §IV.C ablation that learns the store size S
	// and tests the counter against N/S instead of N/8. The paper found it
	// performs worse than plain SPB; it is kept as an ablation knob.
	DynamicSize bool
}

// MachineConfig is a complete single-core machine description.
type MachineConfig struct {
	Core CoreConfig

	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig

	DRAM DRAMConfig

	TLB TLBConfig

	Prefetcher PrefetcherKind

	SPB SPBConfig
}

// WithSQ returns a copy of m with the store-queue (store-buffer) size set to
// n. This is the paper's primary knob: 56, 28, 14 entries and the 1024-entry
// ideal reference.
func (m MachineConfig) WithSQ(n int) MachineConfig {
	m.Core.SQSize = n
	return m
}

// WithPrefetcher returns a copy of m using the given generic L1 prefetcher.
func (m MachineConfig) WithPrefetcher(k PrefetcherKind) MachineConfig {
	m.Prefetcher = k
	return m
}

// WithCore returns a copy of m with the core parameters replaced, keeping
// the memory hierarchy; used by the Fig. 17 core sweep.
func (m MachineConfig) WithCore(c CoreConfig) MachineConfig {
	m.Core = c
	return m
}

// MaxCacheWays is the widest associativity package cache models, for the
// caches and the TLB alike: a set's replacement order is one 64-bit word of
// 4-bit way numbers.
const MaxCacheWays = 16

// Validate reports a configuration error, if any. It catches the mistakes
// that would otherwise surface as confusing simulator behaviour.
func (m MachineConfig) Validate() error {
	c := m.Core
	switch {
	case c.Width <= 0:
		return fmt.Errorf("config: core width must be positive, got %d", c.Width)
	case c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0:
		return fmt.Errorf("config: ROB/IQ/LQ/SQ sizes must be positive (%d/%d/%d/%d)",
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize)
	case c.SQSize > c.ROBSize*32:
		return fmt.Errorf("config: SQ size %d is implausibly large for ROB %d", c.SQSize, c.ROBSize)
	}
	for _, cc := range []CacheConfig{m.L1D, m.L2, m.L3} {
		if cc.SizeBytes <= 0 || cc.Ways <= 0 || cc.LatencyCyc <= 0 || cc.MSHRs <= 0 {
			return fmt.Errorf("config: cache %q has non-positive parameter", cc.Name)
		}
		if cc.Sets()*cc.Ways*64 != cc.SizeBytes {
			return fmt.Errorf("config: cache %q size %d not divisible into %d ways of 64B blocks",
				cc.Name, cc.SizeBytes, cc.Ways)
		}
		if s := cc.Sets(); s&(s-1) != 0 {
			return fmt.Errorf("config: cache %q set count %d is not a power of two", cc.Name, s)
		}
		if cc.Ways > MaxCacheWays {
			return fmt.Errorf("config: cache %q has %d ways, at most %d are modelled", cc.Name, cc.Ways, MaxCacheWays)
		}
	}
	if m.DRAM.LatencyCyc <= 0 || m.DRAM.CyclesPerBlock <= 0 || m.DRAM.MaxOutstanding <= 0 {
		return fmt.Errorf("config: DRAM parameters must be positive")
	}
	if m.TLB.Entries <= 0 || m.TLB.Ways <= 0 || m.TLB.Ways > MaxCacheWays || m.TLB.Entries%m.TLB.Ways != 0 || m.TLB.WalkLat < 0 {
		return fmt.Errorf("config: TLB parameters invalid (%d entries, %d ways, walk %d)",
			m.TLB.Entries, m.TLB.Ways, m.TLB.WalkLat)
	}
	if m.SPB.WindowN < 8 {
		return fmt.Errorf("config: SPB window N must be at least 8, got %d", m.SPB.WindowN)
	}
	if !m.Prefetcher.Valid() {
		// Prefetcher kinds reach here from decoded input (HTTP specs, the
		// job journal); rejecting them at validation time keeps the
		// prefetcher constructor panic-free on every reachable path.
		return fmt.Errorf("config: unknown prefetcher kind %d (want %s)", int(m.Prefetcher), PrefetcherNames)
	}
	return nil
}

// Skylake returns the Table I configuration: the Skylake-X-like machine used
// for all main experiments. The default store buffer has 56 entries.
func Skylake() MachineConfig {
	return MachineConfig{
		Core: skylakeCore(),
		L1D: CacheConfig{
			Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 4, MSHRs: 64,
		},
		L2: CacheConfig{
			Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14, MSHRs: 64,
		},
		L3: CacheConfig{
			Name: "L3", SizeBytes: 16 << 20, Ways: 16, LatencyCyc: 36, MSHRs: 64,
		},
		DRAM: DRAMConfig{
			LatencyCyc:     200,
			CyclesPerBlock: 2, // ~64 GB/s at 2 GHz (multi-channel DDR4)
			MaxOutstanding: 64,
		},
		TLB:        TLBConfig{Entries: 128, Ways: 8, WalkLat: 30},
		Prefetcher: PrefetchStream,
		SPB:        SPBConfig{WindowN: 48},
	}
}

func skylakeCore() CoreConfig {
	return CoreConfig{
		Name:              "SKL",
		Width:             4,
		ROBSize:           224,
		IQSize:            97,
		LQSize:            72,
		SQSize:            56,
		FetchQueue:        56,
		IntAddLat:         1,
		IntMulLat:         4,
		IntDivLat:         22,
		FPAddLat:          5,
		FPMulLat:          5,
		FPDivLat:          22,
		MispredictPenalty: 14,
		BranchMissRate:    0.03,
	}
}

// Cores returns the five Table II core configurations used by the Fig. 17
// sensitivity analysis, ordered from the most energy-efficient (Silvermont)
// to the most aggressive (Sunny Cove).
func Cores() []CoreConfig {
	base := skylakeCore()
	mk := func(name string, rob, iq, lq, sq, width int) CoreConfig {
		c := base
		c.Name = name
		c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.Width = rob, iq, lq, sq, width
		return c
	}
	return []CoreConfig{
		mk("SLM", 32, 15, 10, 16, 4),
		mk("NHL", 128, 32, 48, 36, 4),
		mk("HSW", 192, 60, 72, 42, 8),
		mk("SKL", 224, 97, 72, 56, 8),
		mk("SNC", 352, 128, 128, 72, 8),
	}
}

// IdealSQSize is the store-buffer size used to model the paper's ideal,
// never-stalling SB (a 1024-entry SB never fills on these workloads).
const IdealSQSize = 1024

// StandardSQSizes are the store-buffer sizes of the main evaluation:
// the Skylake 56-entry SB, the SMT-2 half (28) and the SMT-4 quarter (14).
var StandardSQSizes = []int{56, 28, 14}
