// Package sim assembles complete systems (cores + memory hierarchy) and runs
// experiment points. A RunSpec names everything that identifies a simulation
// — workload, store-prefetch policy, SB size, generic prefetcher, core
// micro-architecture, core count, instruction budget — and Run executes it
// deterministically. Runner adds a memoizing, parallel executor on top, so
// the figure harness can share results between the many figures that read
// the same sweep.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/cpu"
	"spb/internal/energy"
	"spb/internal/memsys"
	"spb/internal/topdown"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// RunSpec identifies one simulation point.
type RunSpec struct {
	// Workload is a SPEC-like name (Cores == 1) or PARSEC-like name
	// (Cores > 1).
	Workload string
	Policy   core.Policy
	SQSize   int
	// Prefetcher selects the generic L1 prefetcher.
	Prefetcher config.PrefetcherKind
	// CoreName selects a Table II core by name; "" is Table I's Skylake
	// core, width 4 ("SKL" is Table II's, width 8).
	CoreName string
	// Cores is the core/thread count (1 for SPEC, 8 for PARSEC).
	Cores int
	// Insts is the per-core committed-instruction budget.
	Insts uint64
	// WarmupInsts is the per-core functional-warming prefix: that many
	// instructions per core are replayed against the caches, directory and
	// TLB — no timing, no statistics — before detailed simulation starts.
	// The warmed state depends only on the workload, seed, core config and
	// this length, never on the SB/policy/prefetcher knobs a sweep varies,
	// so the Runner simulates one warmup per such group and starts every
	// member from its snapshot (warm-start, DESIGN.md §12). 0 disables
	// warming.
	WarmupInsts uint64
	// WindowN overrides the SPB window (0 = config default 48).
	WindowN int
	// DynamicSPB enables the dynamic store-size ablation.
	DynamicSPB bool
	// CoalesceSB enables the related-work store-coalescing SB ablation.
	CoalesceSB bool
	// BackwardBursts enables the §IV.A backward-burst extension.
	BackwardBursts bool
	// CrossPageBursts enables the footnote-2 cross-page burst extension.
	CrossPageBursts bool
	// perCycle keeps every core awake in every cycle: the reference loop the
	// event-horizon fast forward is held to (DESIGN.md §7), set only by this
	// package's equivalence tests. Both loops export the same bytes, so it has
	// no wire form and no content address of its own.
	perCycle bool
	// Sampling configures SMARTS-style systematic sampling (DESIGN.md §14):
	// short detailed measurement intervals interleaved with fast functional
	// warming, with CLT confidence intervals reported in the stats. The zero
	// value simulates every instruction in detail.
	Sampling SamplingConfig
	// Seed perturbs the workload generator (0 = default seed).
	Seed uint64
}

// MemStats aggregates the memory-system counters of a run.
type MemStats struct {
	L1TagAccesses uint64
	L1Hits        uint64
	L1Misses      uint64
	L2Accesses    uint64
	L3Accesses    uint64
	DRAMReads     uint64
	DRAMWrites    uint64

	memsys.PortCounters // summed over the cores' ports

	Invalidations uint64
	Writebacks    uint64
}

// SPFNeverUsed derives the Fig. 11 "never used" bucket: issued ownership
// prefetches that were neither consumed, merged with, discarded as
// duplicates, nor evicted before use.
func (m MemStats) SPFNeverUsed() uint64 {
	accounted := m.SPFDiscarded + m.SPFSuccessful + m.SPFLate + m.SPFEarly
	if accounted >= m.SPFIssued {
		return 0
	}
	return m.SPFIssued - accounted
}

// Result is the outcome of one simulation point. For a sampled run (Spec.
// Sampling enabled), CPU and Mem aggregate the measured detailed windows
// only — they are the sampled estimate, not full-run totals — and Sample
// carries the per-interval statistics (mean + 95% CI per rate).
type Result struct {
	Spec   RunSpec
	CPU    cpu.Stats // aggregated over cores (cycles = max across cores)
	Mem    MemStats
	Energy energy.Breakdown
	TD     topdown.Report
	Sample SampleStats // zero unless Spec.Sampling is enabled
}

// IPC returns committed instructions per cycle over all cores.
func (r Result) IPC() float64 { return r.CPU.IPC() }

func (s RunSpec) normalize() RunSpec {
	if s.Cores == 0 {
		s.Cores = 1
	}
	if s.Insts == 0 {
		s.Insts = 200_000
	}
	if s.WindowN == 0 {
		s.WindowN = 48
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	s.Sampling = s.Sampling.normalize()
	return s
}

// Normalized returns the spec with every defaulted field filled in. Two specs
// that normalize identically are the same simulation point: this is the form
// the Runner memoizes on and the form external caches must key on.
func (s RunSpec) Normalized() RunSpec { return s.normalize() }

// CostEstimate ranks a spec by expected wall-clock simulation time, for
// longest-processing-time-first dispatch. The absolute value is meaningless;
// only the ordering matters. Total work scales with the committed-instruction
// budget across cores; multi-core runs pay lock-step coordination on top; an
// ideal SB never stalls, so its runs have no dead spans for the event-horizon
// fast forward to skip. The warm-up prefix does not count: a Runner
// executes it once per group, not per spec, so a point is ranked by what its
// own run will simulate.
func (s RunSpec) CostEstimate() uint64 {
	n := s.normalize()
	insts := n.Insts
	if n.Sampling.Enabled() {
		// A sampled run simulates only the detailed portion of each sampling
		// period in detail; a functionally warmed instruction is charged 3/8
		// of a detailed one, the ratio the benchmark's traced run measures on
		// the SB-bound sweep: sim.warm_ns_per_inst 38.2 and 38.9 in two runs
		// against cpu.run_ns_per_inst 105.8 and 106.4 (0.36, 0.37; it was 56.3
		// and 62.8 against 106 before the warm tier walked the program). This is what lets LPT ordering, batch
		// scheduling and client-pool hedging rank a sampled point by the work
		// it will actually do, far below its full-detail twin.
		cfg := n.Sampling
		intervals := (n.Insts + cfg.IntervalInsts - 1) / cfg.IntervalInsts
		detailed := intervals * (cfg.WarmInsts + cfg.DetailedInsts)
		if detailed > n.Insts {
			detailed = n.Insts
		}
		insts = detailed + (n.Insts-detailed)/8*3
	}
	cost := insts * uint64(n.Cores)
	if n.Cores > 1 {
		cost += cost / 2
	}
	if n.Policy == core.PolicyIdeal {
		cost *= 2
	}
	return cost
}

// Progress is a point-in-time view of a running simulation, delivered to the
// callback passed to RunCtx. Committed and Cycles aggregate over all cores
// (cycles = max, committed = sum); TargetInsts is the total committed-
// instruction budget (Insts × Cores), so Committed/TargetInsts approximates
// completion.
type Progress struct {
	Committed   uint64
	Cycles      uint64
	TargetInsts uint64
	// FastForwardInsts counts instructions covered functionally rather than
	// in detail: the warmup prefix plus any sampling skips. They are kept
	// out of Committed so InstsPerSec reports the honest detailed-simulation
	// rate instead of a number inflated by fast-forwarding.
	FastForwardInsts uint64
	// InstsPerSec is the wall-clock simulation throughput (detailed
	// committed instructions per second of real time) since the run
	// started. It is reporting-only state: it never enters the canonical
	// stats JSON, which must stay byte-deterministic.
	InstsPerSec float64
}

// IPC returns committed instructions per cycle so far.
func (p Progress) IPC() float64 {
	if p.Cycles == 0 {
		return 0
	}
	return float64(p.Committed) / float64(p.Cycles)
}

// progressEvery is how many steps of cpu.Lockstep pass between progress
// callbacks. A step ticks every core that is
// awake in one simulated cycle, so at simulator speeds this is a
// sub-millisecond cadence while keeping the work off the per-cycle hot path.
const progressEvery = 8192

// Run executes one simulation point.
func Run(spec RunSpec) (Result, error) {
	return RunCtx(context.Background(), spec, nil)
}

// RunCtx executes one simulation point under a context, on a cold machine from
// the first segment of its plan to the last. If ctx is cancelled the
// simulation stops within a few thousand steps and the context's error is
// returned — abandoned or timed-out requests do not keep simulating. If
// onProgress is non-nil it is invoked periodically (every progressEvery steps
// of a detailed segment, and after every segment) from the simulating
// goroutine; it must be cheap and must not block.
func RunCtx(ctx context.Context, spec RunSpec, onProgress func(Progress)) (Result, error) {
	return runPlan(ctx, spec.normalize(), nil, nil, onProgress)
}

// RunPrograms runs a spec's plan on a cold machine over the given streams,
// one per core, in place of those its workload builds, and consumes them: the
// entry of the command-line tools that bring a stream of their own (spbtrace
// replay, the quickstart). The spec's Cores is len(progs), and Workload only
// names the run. No RunSpec reaches it, so nothing that takes specs from
// outside (spbd) can run a caller's stream.
func RunPrograms(spec RunSpec, progs []*trace.Program) (Result, error) {
	if len(progs) == 0 {
		return Result{}, fmt.Errorf("sim: no stream to run")
	}
	spec.Cores = len(progs)
	return runPlan(context.Background(), spec.normalize(), nil, progs, nil)
}

// Validate refuses a spec no machine can be built for, with the error its run
// would fail with: a core count, after normalization, outside
// 1..memsys.MaxCores (the directory names sharers in a 64-bit mask), a
// sampling schedule whose detailed portion does not fit its period, an unknown
// core, or a machine config.MachineConfig.Validate refuses (one with no store
// buffer, say). A caller that takes specs from outside (spbd's submit and batch
// handlers, journal replay) calls it to refuse one before queueing it. The
// workload name is looked up only when the point runs, and an unknown one fails
// that run.
func (s RunSpec) Validate() error {
	_, err := s.normalize().machineConfig()
	return err
}

// machineConfig resolves and validates a normalized spec's full machine
// configuration: every check Validate makes.
func (s RunSpec) machineConfig() (config.MachineConfig, error) {
	if s.Cores < 1 || s.Cores > memsys.MaxCores {
		return config.MachineConfig{}, fmt.Errorf("sim: core count %d out of range 1..%d", s.Cores, memsys.MaxCores)
	}
	if err := s.Sampling.validate(); err != nil {
		return config.MachineConfig{}, err
	}
	machine := config.Skylake() // CoreName "": Table I's core
	if s.CoreName != "" {
		cores := config.Cores()
		i := slices.IndexFunc(cores, func(c config.CoreConfig) bool { return c.Name == s.CoreName })
		if i < 0 {
			return config.MachineConfig{}, fmt.Errorf("sim: unknown core config %q", s.CoreName)
		}
		machine.Core = cores[i]
	}
	machine = machine.WithSQ(s.SQSize).WithPrefetcher(s.Prefetcher)
	machine.SPB.WindowN = s.WindowN
	machine.SPB.DynamicSize = s.DynamicSPB
	if err := machine.Validate(); err != nil {
		return config.MachineConfig{}, err
	}
	return machine, nil
}

// buildReaders constructs the per-core instruction streams of a normalized
// spec. Every workload builds compiled trace.Programs, whose bulk Skip and
// SkipTouch the functional segments rely on.
func buildReaders(spec RunSpec) ([]*trace.Program, error) {
	if spec.Cores == 1 {
		w, err := workloads.SPECByName(spec.Workload)
		if err != nil {
			return nil, err
		}
		return []*trace.Program{w.Build(spec.Seed)}, nil
	}
	p, err := workloads.PARSECByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	return p.Build(spec.Seed, spec.Cores), nil
}

// collectMem reads the memory system's cumulative counters into a MemStats.
// The counters only grow, so a window is measured as the difference of two
// collections.
func collectMem(sys *memsys.System) MemStats {
	var m MemStats
	for i := 0; i < sys.Ports(); i++ {
		p := sys.Port(i)
		m.L1TagAccesses += p.L1().TagAccesses
		m.L1Hits += p.L1().Hits
		m.L1Misses += p.L1().Misses
		m.L2Accesses += p.L2().TagAccesses
		addCounters(portCounters, &m.PortCounters, p.PortCounters)
		m.Writebacks += p.L1().Writebacks + p.L2().Writebacks
	}
	m.L3Accesses = sys.L3().TagAccesses
	m.DRAMReads = sys.DRAM().Reads
	m.DRAMWrites = sys.DRAM().Writes
	m.Invalidations = sys.Invalidations
	return m
}

// finishResult assembles a Result from aggregated counters: the derived
// energy and Top-Down views are computed from whatever window the counters
// cover (the whole run, or a sampled run's measured intervals).
func finishResult(spec RunSpec, aggCPU cpu.Stats, aggMem MemStats) Result {
	res := Result{Spec: spec, CPU: aggCPU, Mem: aggMem}
	res.Energy = energy.Compute(energy.Default22nm(), energy.Events{
		Cycles:         res.CPU.Cycles,
		L1TagAccesses:  res.Mem.L1TagAccesses,
		L1DataAccesses: res.Mem.L1Hits + res.Mem.L1Misses,
		L2Accesses:     res.Mem.L2Accesses,
		L3Accesses:     res.Mem.L3Accesses,
		DRAMAccesses:   res.Mem.DRAMReads + res.Mem.DRAMWrites,
		CommittedInsts: res.CPU.Committed,
		WrongPathInsts: res.CPU.WrongPathInsts,
		Loads:          res.CPU.Loads,
		SBEntries:      spec.SQSize,
	})
	res.TD = topdown.Analyze(&res.CPU)
	return res
}

// maxMemo bounds the results a Runner remembers (the one learned longest ago
// is forgotten first), so a daemon fed never-seen specs around the clock does
// not grow without limit: a result and its spec are about 1 KB, so the memo
// tops out near 15 MB. A forgotten spec is simulated again — or, in spbd,
// found in the disk tier and written back, exactly as after a restart. The
// size is the job table's (server.maxTerminalJobs): ten times the largest
// figure sweep.
const maxMemo = 16384

// Runner is a memoizing, parallel executor of simulation points.
type Runner struct {
	// results holds finished runs by normalized spec; a spec's run is executed
	// once however many callers ask for it at the same time.
	results *keyed[RunSpec, Result]

	// runs counts actual simulations executed (not cache or singleflight
	// hits); the duplicate-suppression test reads it.
	runs atomic.Uint64

	// Warm-start groups (DESIGN.md §12): specs that agree on their
	// warmup-equivalent projection share one functionally-warmed snapshot,
	// from which each member's run starts. Its waits count the waits for a
	// warm-up in flight, the wait GetAll's warm-first pass rules out for its
	// own specs (TestGetAllNeverParksBehindWarmup).
	groups *keyed[warmKey, *warmGroup]

	warmGroups     atomic.Uint64 // warmups actually simulated
	warmForks      atomic.Uint64 // runs started from a snapshot
	warmInstsSaved atomic.Uint64 // warmup instructions elided by sharing
	instsSimulated atomic.Uint64 // instructions simulated (warm + detailed)

	sampledRuns        atomic.Uint64 // runs executed in sampling mode
	sampleIntervals    atomic.Uint64 // measured detailed intervals
	sampleInstsSkipped atomic.Uint64 // insts covered functionally by sampling
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{
		results: newKeyed[RunSpec, Result](maxMemo),
		groups:  newKeyed[warmKey, *warmGroup](maxWarmGroups),
	}
}

// RunnerStats is a point-in-time view of a runner's execution counters.
type RunnerStats struct {
	// Runs counts detailed simulations executed (= Runs()).
	Runs uint64
	// WarmGroups counts warmup groups actually simulated: each
	// warmup-equivalence group is simulated once (again only if its snapshot
	// was evicted in between).
	WarmGroups uint64
	// WarmForks counts runs started from a warm snapshot.
	WarmForks uint64
	// WarmInstsSaved counts warmup instructions that were never simulated
	// because a group's snapshot was shared ((forks-1) × warmup × cores
	// per group).
	WarmInstsSaved uint64
	// InstsSimulated counts instructions actually simulated — functional
	// warming plus detailed intervals.
	InstsSimulated uint64
	// SampledRuns counts runs executed in SMARTS sampling mode.
	SampledRuns uint64
	// SampleIntervals counts measured detailed intervals across sampled
	// runs.
	SampleIntervals uint64
	// SampleInstsSkipped counts instructions sampled runs covered with fast
	// functional warming instead of detailed simulation.
	SampleInstsSkipped uint64
}

// SimStats returns the runner's execution counters.
func (r *Runner) SimStats() RunnerStats {
	return RunnerStats{
		Runs:               r.runs.Load(),
		WarmGroups:         r.warmGroups.Load(),
		WarmForks:          r.warmForks.Load(),
		WarmInstsSaved:     r.warmInstsSaved.Load(),
		InstsSimulated:     r.instsSimulated.Load(),
		SampledRuns:        r.sampledRuns.Load(),
		SampleIntervals:    r.sampleIntervals.Load(),
		SampleInstsSkipped: r.sampleInstsSkipped.Load(),
	}
}

// Get runs (or recalls) one spec. Concurrent calls for the same spec run the
// simulation exactly once: the first caller executes, later callers wait for
// its result.
func (r *Runner) Get(spec RunSpec) (Result, error) {
	return r.GetCtx(context.Background(), spec, nil)
}

// Lookup reports whether the runner has a memoized result for spec, without
// running anything. External cache tiers use it to decide whether to consult
// slower storage.
func (r *Runner) Lookup(spec RunSpec) (Result, bool) {
	return r.results.lookup(spec.normalize())
}

// Put seeds the memoization cache with an externally obtained result (e.g.
// one recalled from a disk store), so later Get calls for the same spec are
// memory hits. The result is keyed under the normalized spec regardless of
// the form res.Spec is in.
func (r *Runner) Put(spec RunSpec, res Result) {
	r.results.put(spec.normalize(), res)
}

// GetCtx is Get with cancellation and progress reporting. The first caller
// for a spec executes the simulation under its own ctx; concurrent callers
// for the same spec wait for that result, but stop waiting (with their own
// ctx's error) if their context is cancelled first. If the executing caller
// is cancelled, the waiters see its cancellation error and nothing is
// cached; the next call re-runs the spec. onProgress only fires for the
// caller that actually executes.
func (r *Runner) GetCtx(ctx context.Context, spec RunSpec, onProgress func(Progress)) (Result, error) {
	spec = spec.normalize()
	return r.results.get(ctx, spec, func() (Result, error) {
		r.runs.Add(1)
		return r.execute(ctx, spec, onProgress)
	})
}

// Runs reports how many simulations this runner actually executed (cache and
// singleflight hits excluded).
func (r *Runner) Runs() uint64 { return r.runs.Load() }

// GetAll runs the specs on a fixed worker pool and returns the results in
// spec order. The first error aborts the batch.
func (r *Runner) GetAll(specs []RunSpec) ([]Result, error) {
	return r.GetAllCtx(context.Background(), specs)
}

// lptOrder returns spec indices sorted by descending CostEstimate (ties keep
// submission order). Dispatching the longest points first keeps a sweep's
// makespan from being set by an 8-core PARSEC or ideal-SB straggler that a
// naive ordering hands to a worker last.
func lptOrder(specs []RunSpec) []int {
	order := make([]int, len(specs))
	costs := make([]uint64, len(specs))
	for i, s := range specs {
		order[i] = i
		costs[i] = s.CostEstimate()
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}

// GetAllCtx runs the specs on a fixed worker pool (min(GOMAXPROCS, len(specs))
// workers) and returns the results in spec order, in two passes. The first
// builds the snapshot of every warm-start group that a spec not yet memoized
// forks from, longest warm-up first; the second runs the specs longest-first
// (see lptOrder), so every fork finds its snapshot built and no worker waits
// for a warm-up another is building (DESIGN.md §12). Results land at their
// original indices, so callers see no difference from in-order execution. The
// first error stops all further dispatch — workers finish the call they are on
// and exit, since the batch is doomed anyway — and cancelling ctx aborts the
// batch the same way, with running simulations stopped through their ctx. A
// fixed pool — rather than one goroutine per spec parked behind a semaphore —
// keeps a five-figure sweep from materializing hundreds of idle goroutines up
// front.
func (r *Runner) GetAllCtx(ctx context.Context, specs []RunSpec) ([]Result, error) {
	var warm []RunSpec
	seen := make(map[warmKey]bool)
	for _, s := range specs {
		s = s.normalize()
		if _, memoized := r.results.lookup(s); s.WarmupInsts > 0 && !memoized && !seen[warmKeyOf(s)] {
			seen[warmKeyOf(s)] = true
			warm = append(warm, s)
		}
	}
	slices.SortStableFunc(warm, func(a, b RunSpec) int {
		return cmp.Compare(b.WarmupInsts*uint64(b.Cores), a.WarmupInsts*uint64(a.Cores))
	})
	if err := parallel(ctx, len(warm), func(i int) error {
		_, err := r.warmGroup(ctx, warm[i])
		return err
	}); err != nil {
		return nil, err
	}

	results := make([]Result, len(specs))
	order := lptOrder(specs)
	if err := parallel(ctx, len(specs), func(k int) (err error) {
		results[order[k]], err = r.GetCtx(ctx, specs[order[k]], nil)
		return err
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// parallel calls do(0), do(1), … do(n-1) on min(GOMAXPROCS, n) workers, each
// taking the next index when it finishes a call. The first error stops all
// further dispatch, and so does cancelling ctx; parallel returns that error, or
// ctx's.
func parallel(ctx context.Context, n int, do func(i int) error) error {
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}
