// Package cpu models the out-of-order core of Table I: a trace-driven
// pipeline with dispatch/commit width, ROB/IQ/LQ occupancy limits, a unified
// store queue that blocks dispatch when full (the SB-induced stall the paper
// measures), dependency- and memory-latency-driven completion times, branch
// misprediction with wrong-path memory traffic, and the commit-stage hooks
// where the store-prefetch policies (at-execute, at-commit, SPB, ideal) act.
//
// The model is deliberately not microarchitecturally exact — it is the
// substrate substitution documented in DESIGN.md — but every mechanism the
// paper's figures measure is present and interacts the way the paper
// describes: stores serialize on ownership misses, the SB fills and stalls
// dispatch, prefetch policies hide (or fail to hide) the ownership latency,
// and faster branch-feeding loads shrink wrong-path work.
package cpu

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/storebuf"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// partialForwardPenalty is the extra latency of a load that overlaps an SB
// store without being covered by it.
const partialForwardPenalty = 8

// maxHeadRetries bounds how often the SB-head store re-requests ownership
// after losing it to a remote steal before the forward-progress guarantee
// retires it by force.
const maxHeadRetries = 8

// Caps on synthesized wrong-path memory traffic per misprediction, bounding
// simulation cost while preserving the proportionality to wrong-path span.
const (
	maxWrongPathLoads    = 16
	maxWrongPathStorePFs = 4
)

// robEntry is one in-flight instruction.
type robEntry struct {
	Kind   trace.Kind
	Size   uint8
	Addr   mem.Addr
	PC     uint64
	DoneAt uint64
	SBSeq  uint64
}

// Stats aggregates the per-core counters the figures are built from.
type Stats struct {
	Cycles    uint64
	Committed uint64

	Loads          uint64
	Stores         uint64
	Branches       uint64
	Mispredicts    uint64
	WrongPathInsts uint64

	ForwardedLoads  uint64
	PartialForwards uint64

	// Issue-stall accounting: cycles in which nothing dispatched, by cause.
	SBStallCycles       uint64 // store queue (SB) full — the paper's metric
	ROBStallCycles      uint64
	IQStallCycles       uint64
	LQStallCycles       uint64
	FrontendStallCycles uint64 // mispredict redirect refill

	// SB stalls attributed to the code region of the store blocking the SB
	// head (Fig. 3).
	SBStallApp    uint64
	SBStallLib    uint64
	SBStallKernel uint64

	// ExecStallL1DPending counts zero-dispatch cycles with at least one L1D
	// miss outstanding (the Top-Down metric of Figs. 14/15).
	ExecStallL1DPending uint64

	StoresPerformed uint64
	SPBBursts       uint64
}

// OtherStallCycles returns the non-SB resource stalls (Fig. 10's "Other").
func (s *Stats) OtherStallCycles() uint64 {
	return s.ROBStallCycles + s.IQStallCycles + s.LQStallCycles
}

// IssueStallCycles returns all resource-induced zero-dispatch cycles.
func (s *Stats) IssueStallCycles() uint64 {
	return s.SBStallCycles + s.OtherStallCycles()
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// Core is one simulated out-of-order core.
type Core struct {
	cfg    config.CoreConfig
	policy core.Policy
	port   *memsys.Port
	sb     *storebuf.StoreBuffer
	det    *core.Detector
	// dtlb is the machine's: a core borrows its TLB and never releases it.
	dtlb *tlb.TLB
	// reader is the core's stream: a concrete type, so dispatch calls Next
	// without going through an interface, once per instruction.
	reader *trace.LimitReader
	rng    *trace.RNG

	// Frontend.
	fetchReadyAt uint64
	pending      trace.Inst
	havePending  bool
	traceDone    bool

	// ROB ring buffer.
	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	// doneHist maps recent instruction sequence numbers to completion
	// cycles for register-dependency resolution.
	doneHist [256]uint64
	seq      uint64

	// Occupancy trackers for IQ and LQ.
	iq occHeap
	lq occHeap

	// SB-head ownership-request state.
	headAcquired bool
	headSeq      uint64
	headReadyAt  uint64
	headRetries  int

	// noFF keeps Lockstep from sending this core to its event horizon.
	noFF bool

	// Recent addresses for wrong-path traffic synthesis.
	lastLoadAddr  mem.Addr
	lastStoreAddr mem.Addr

	// St.Cycles is the core's clock.
	St Stats
}

// Options selects the optional extensions of a core: the related-work
// store-coalescing SB, and the SPB detector's backward/cross-page burst
// variants (see core.Options). The zero value is the paper's configuration.
type Options struct {
	// CoalesceSB merges contiguous same-block junior stores into one SB
	// entry (Ros & Kaxiras-style coalescing, §VII.B of the paper).
	CoalesceSB bool
	// BackwardBursts enables descending-pattern bursts (§IV.A).
	BackwardBursts bool
	// CrossPageBursts lets bursts continue into the next page (footnote 2).
	CrossPageBursts bool
	// DisableFastForward forces Run into the cycle-by-cycle reference loop
	// instead of sleeping through provably dead cycles (see sleep). The two
	// modes produce bit-identical statistics; the knob exists for the
	// equivalence test and for debugging.
	DisableFastForward bool
	// StartCycle sets the core clock's initial value. The memory system
	// stamps lines, MSHRs and queues with absolute cycle numbers, so when a
	// sampled run executes successive detailed segments against one
	// persistent hierarchy, each segment's cores must continue the previous
	// segment's cycle domain: a core restarting at zero would read every
	// in-flight timestamp the last segment left behind as lying up to a
	// whole segment in the future and stall on state that in reality
	// settled during the functional gap.
	StartCycle uint64
}

// New builds a standalone core running the given policy over the instruction
// stream, with a Table I data TLB of its own. For PolicyIdeal the configured
// SQ size is overridden with the never-stalling 1024-entry buffer of the
// paper.
func New(cfg config.CoreConfig, policy core.Policy, spbCfg config.SPBConfig,
	port *memsys.Port, reader *trace.LimitReader, seed uint64) *Core {
	return NewWithOptions(cfg, policy, spbCfg, tlb.New(tlb.TableI()), Options{}, port, reader, seed)
}

// NewWithOptions builds a core on its machine's data TLB, with extension
// options.
func NewWithOptions(cfg config.CoreConfig, policy core.Policy, spbCfg config.SPBConfig,
	dtlb *tlb.TLB, opts Options, port *memsys.Port, reader *trace.LimitReader, seed uint64) *Core {
	sqSize := cfg.SQSize
	if policy == core.PolicyIdeal {
		sqSize = config.IdealSQSize
	}
	sb := storebuf.New(sqSize)
	if opts.CoalesceSB {
		sb = storebuf.NewCoalescing(sqSize)
	}
	c := &Core{
		cfg:    cfg,
		policy: policy,
		port:   port,
		sb:     sb,
		dtlb:   dtlb,
		reader: reader,
		rng:    trace.NewRNG(seed),
		rob:    newROB(cfg.ROBSize),
	}
	if policy == core.PolicySPB {
		c.det = core.NewDetectorWithOptions(spbCfg.WindowN, core.Options{
			Dynamic:   spbCfg.DynamicSize,
			Backward:  opts.BackwardBursts,
			CrossPage: opts.CrossPageBursts,
		})
	}
	c.noFF = opts.DisableFastForward
	c.St.Cycles = opts.StartCycle
	return c
}

// SB exposes the store buffer (tests and invariant checks).
func (c *Core) SB() *storebuf.StoreBuffer { return c.sb }

// Detector exposes the SPB detector (nil unless PolicySPB).
func (c *Core) Detector() *core.Detector { return c.det }

// Done reports whether the core has drained: trace exhausted, ROB empty and
// no senior stores pending.
func (c *Core) Done() bool {
	return c.traceDone && !c.havePending && c.robCount == 0 && c.sb.Empty()
}

// Tick advances the core by one cycle: commit, SB drain, then dispatch. It
// reports whether the cycle was idle — nothing committed, no store performed,
// nothing dispatched. Only an idle cycle can start a dead span, so Lockstep
// sends a core to sleep only after one and busy cycles pay nothing for it.
func (c *Core) Tick() bool {
	com0, perf0 := c.St.Committed, c.St.StoresPerformed
	c.commitStage()
	c.drainSB()
	dispatched, cause := c.dispatchStage()
	if dispatched == 0 {
		c.idle(cause, 1)
	}
	c.St.Cycles++
	return dispatched == 0 && c.St.Committed == com0 && c.St.StoresPerformed == perf0
}

// Run executes until n instructions have committed (or the trace ends) and
// the machine has drained. It returns an error if the core livelocks.
//
// Unless Options.DisableFastForward is set, Run sleeps through provably dead
// cycles (see Lockstep). Statistics are bit-identical to the cycle-by-cycle
// loop.
func (c *Core) Run(n uint64) error { return c.RunCtx(context.Background(), n) }

// RunCtx is Run under a context: if ctx is cancelled the loop stops within
// cancelCheckEvery steps and returns the context's error, leaving the core's
// statistics at the point it stopped. A background context adds no per-cycle
// overhead.
func (c *Core) RunCtx(ctx context.Context, n uint64) error {
	if c.St.Committed >= n {
		return nil
	}
	return Lockstep(ctx, []*Core{c}, n*1000+1_000_000, func(uint64) (bool, error) {
		return c.St.Committed >= n, nil
	})
}

// dispatchBlock is why the dispatch stage cannot take the pending instruction.
// The order of the causes is the order they are tested in, which is part of
// the paper's stall taxonomy: dispatchBlockAt is the one statement of it, and
// idle the one attribution — a ticked cycle and a slept span both go through
// them.
type dispatchBlock int

const (
	// dispatchReady: the pending instruction can dispatch.
	dispatchReady dispatchBlock = iota
	blockFrontend
	blockROB
	blockSB
	blockLQ
	blockIQ
)

// dispatchBlockAt evaluates the dispatch cause chain for the pending
// instruction at cycle t. Callers must ensure havePending.
func (c *Core) dispatchBlockAt(t uint64) dispatchBlock {
	in := &c.pending
	switch {
	case t < c.fetchReadyAt:
		return blockFrontend
	case c.robCount == len(c.rob):
		return blockROB
	case in.Kind == trace.KindStore && !c.sb.CanAccept(in.Addr, in.Size):
		return blockSB
	case in.Kind == trace.KindLoad && c.lq.occupancy(t) >= c.cfg.LQSize:
		return blockLQ
	case c.iq.occupancy(t) >= c.cfg.IQSize:
		return blockIQ
	}
	return dispatchReady
}

// liftCycle returns the cycle at which a blocking cause could lift on its
// own. Causes released by commit or SB drain (ROB full, SB full) return
// math.MaxUint64: the commit and drain events bound a sleep instead.
func (c *Core) liftCycle(cause dispatchBlock) uint64 {
	switch cause {
	case blockFrontend:
		return c.fetchReadyAt
	case blockLQ:
		return c.lq.releaseCycle(c.cfg.LQSize)
	case blockIQ:
		return c.iq.releaseCycle(c.cfg.IQSize)
	}
	return math.MaxUint64
}

// idle charges n cycles in which nothing dispatched, from the current one on:
// each to what blocked dispatch (dispatchReady: nothing was pending), and to
// the Top-Down "L1D miss pending" count while an L1D miss is in flight. It is
// the one place an undispatched cycle is charged: n is one for a ticked cycle
// and a whole dead span for a sleep, during which the cause and the store at
// the head of the SB cannot change and no miss is issued — so cycle u has one
// in flight exactly while u is before the latest outstanding fill.
func (c *Core) idle(cause dispatchBlock, n uint64) {
	switch cause {
	case blockFrontend:
		c.St.FrontendStallCycles += n
	case blockROB:
		c.St.ROBStallCycles += n
	case blockSB:
		c.St.SBStallCycles += n
		c.attributeSBStall(n)
	case blockLQ:
		c.St.LQStallCycles += n
	case blockIQ:
		c.St.IQStallCycles += n
	}
	if c.Done() {
		return
	}
	if now, ready := c.St.Cycles, c.port.MaxOutstandingL1Ready(c.St.Cycles); ready > now {
		c.St.ExecStallL1DPending += min(ready-now, n)
	}
}

// sleep sends an idle core to its event horizon: the earliest cycle at which
// it could commit, drain a store, dispatch, or otherwise change architectural
// or statistical state. Every cycle before it is dead, and idle charges them
// as the cycle-by-cycle loop would have; a horizon at the current cycle means
// the next Tick may act, and the core stays awake.
func (c *Core) sleep() {
	now := c.St.Cycles
	next := uint64(math.MaxUint64)

	// Commit: the ROB head retires the moment its completion cycle arrives;
	// younger entries cannot retire before it (in-order commit).
	if c.robCount > 0 {
		if next = c.rob[c.robHead].DoneAt; next <= now {
			return
		}
	}

	// SB drain: a senior head either performs when its fill completes, or —
	// if the block was stolen after the grant — retries one cycle past the
	// recorded fill time. An unacquired head issues its request next Tick.
	if e, ok := c.sb.Head(); ok {
		if !c.headAcquired || c.headSeq != e.Seq {
			return
		}
		ev := c.headReadyAt + 1 // retry / force-perform path
		if r, writable := c.port.WritableReadyCycle(e.Addr); writable && r < ev {
			ev = r // the store performs the moment the fill completes
		}
		if ev <= now {
			return
		}
		next = min(next, ev)
	}

	// Dispatch: with no pending instruction and trace remaining, the next
	// Tick pulls from the reader (an action). With a pending instruction the
	// blocking cause is constant over the dead span, and its lift cycle —
	// where one is not already bounded by the commit/drain events above —
	// caps the sleep.
	cause := dispatchReady
	if c.havePending {
		if cause = c.dispatchBlockAt(now); cause == dispatchReady {
			return
		}
		next = min(next, c.liftCycle(cause))
	} else if !c.traceDone {
		return
	}

	if next == math.MaxUint64 {
		return
	}
	c.idle(cause, next-now)
	c.St.Cycles = next
}

func (c *Core) commitStage() {
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.DoneAt > c.St.Cycles {
			break
		}
		if e.Kind == trace.KindStore {
			c.sb.Commit(e.SBSeq)
			c.onStoreCommit(e)
		}
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		c.St.Committed++
	}
}

// onStoreCommit fires the at-commit prefetch and feeds the SPB detector.
func (c *Core) onStoreCommit(e *robEntry) {
	if c.policy.PrefetchesAtCommit() {
		c.port.PrefetchOwn(mem.BlockOf(e.Addr), c.St.Cycles, false)
	}
	if c.det == nil {
		return
	}
	burst, ok := c.det.Observe(e.Addr, e.Size)
	if !ok {
		return
	}
	c.St.SPBBursts++
	// The burst is one request to the L1 controller; the controller works
	// through it at one prefetch per cycle, so requests are paced rather
	// than dumped into the memory system in a single cycle.
	offset := uint64(0)
	burst.Blocks(func(b mem.Block) {
		c.port.PrefetchOwn(b, c.St.Cycles+offset, true)
		offset++
	})
}

// drainSB writes the oldest senior store to the L1 when its block is owned;
// otherwise it makes sure an ownership request is outstanding. One store
// performs per cycle (pipelined L1 stores).
func (c *Core) drainSB() {
	e, ok := c.sb.Head()
	if !ok {
		return
	}
	if c.port.PerformStore(e.Addr, e.PC, c.St.Cycles) {
		c.sb.Pop()
		c.St.StoresPerformed++
		c.headAcquired = false
		return
	}
	// Not performable: ensure ownership has been requested exactly once,
	// re-issuing only if the fill was lost to an eviction or a remote
	// steal. After bounded retries the oldest store retires by force —
	// the forward-progress guarantee every TSO implementation provides,
	// without which two cores hammering one block can starve each other.
	if !c.headAcquired || c.headSeq != e.Seq {
		res := c.port.StoreAcquire(e.Addr, e.PC, c.St.Cycles)
		c.headAcquired = true
		c.headSeq = e.Seq
		c.headReadyAt = res.Done
		c.headRetries = 0
		return
	}
	if c.St.Cycles <= c.headReadyAt {
		return // fill still in flight
	}
	c.headRetries++
	if c.headRetries >= maxHeadRetries {
		c.port.ForcePerform(e.Addr, e.PC, c.St.Cycles)
		c.sb.Pop()
		c.St.StoresPerformed++
		c.headAcquired = false
		c.headRetries = 0
		return
	}
	res := c.port.StoreAcquire(e.Addr, e.PC, c.St.Cycles)
	c.headReadyAt = res.Done
}

// dispatchStage brings up to Width new instructions into the back end and
// returns how many it dispatched and, when it stopped short, what blocked the
// next one (dispatchReady: the trace is exhausted).
func (c *Core) dispatchStage() (dispatched int, cause dispatchBlock) {
	for dispatched < c.cfg.Width {
		if !c.havePending {
			if c.traceDone {
				break
			}
			if !c.reader.Next(&c.pending) {
				c.traceDone = true
				break
			}
			c.havePending = true
		}
		if cause = c.dispatchBlockAt(c.St.Cycles); cause != dispatchReady {
			break
		}
		c.dispatch(&c.pending)
		c.havePending = false
		dispatched++
	}
	return dispatched, cause
}

// attributeSBStall charges n stall cycles to the code region of the store
// blocking the head of the SB (Fig. 3). n > 1 batches a slept span during
// which the blocking store cannot change.
func (c *Core) attributeSBStall(n uint64) {
	e, ok := c.sb.Head()
	if !ok {
		// Buffer full of junior stores: blame the oldest one.
		c.St.SBStallApp += n
		return
	}
	switch trace.RegionOf(e.PC) {
	case trace.RegionLib:
		c.St.SBStallLib += n
	case trace.RegionKernel:
		c.St.SBStallKernel += n
	default:
		c.St.SBStallApp += n
	}
}

// dispatch allocates the instruction and computes its execution schedule.
func (c *Core) dispatch(in *trace.Inst) {
	ready := c.St.Cycles + 1
	if in.Dep1 > 0 && uint64(in.Dep1) <= c.seq {
		if t := c.doneHist[(c.seq-uint64(in.Dep1))&255]; t > ready {
			ready = t
		}
	}
	if in.Dep2 > 0 && uint64(in.Dep2) <= c.seq {
		if t := c.doneHist[(c.seq-uint64(in.Dep2))&255]; t > ready {
			ready = t
		}
	}
	execAt := ready
	var doneAt uint64
	var sbSeq uint64

	switch in.Kind {
	case trace.KindIntALU:
		doneAt = execAt + uint64(c.cfg.IntAddLat)
	case trace.KindIntMul:
		doneAt = execAt + uint64(c.cfg.IntMulLat)
	case trace.KindIntDiv:
		doneAt = execAt + uint64(c.cfg.IntDivLat)
	case trace.KindFPALU:
		doneAt = execAt + uint64(c.cfg.FPAddLat)
	case trace.KindFPMul:
		doneAt = execAt + uint64(c.cfg.FPMulLat)
	case trace.KindFPDiv:
		doneAt = execAt + uint64(c.cfg.FPDivLat)

	case trace.KindLoad:
		c.St.Loads++
		c.lastLoadAddr = in.Addr
		execAt += c.dtlb.Translate(in.Addr) // page walk before the access can issue
		switch c.sb.Forward(in.Addr, in.Size, c.sb.TailSeq()) {
		case storebuf.FullForward:
			c.St.ForwardedLoads++
			doneAt = execAt + 1
		case storebuf.PartialForward:
			c.St.PartialForwards++
			res := c.port.Load(in.Addr, in.PC, execAt+partialForwardPenalty)
			doneAt = res.Done
		default:
			res := c.port.Load(in.Addr, in.PC, execAt)
			doneAt = res.Done
		}
		c.lq.add(doneAt)

	case trace.KindStore:
		c.St.Stores++
		c.lastStoreAddr = in.Addr
		execAt += c.dtlb.Translate(in.Addr) // page walk at address generation
		sbSeq = c.sb.Allocate(in.Addr, in.Size, in.PC)
		doneAt = execAt + 1 // address generation; the write happens post-commit
		if c.policy == core.PolicyAtExecute {
			c.port.PrefetchOwn(mem.BlockOf(in.Addr), execAt, false)
		}

	case trace.KindBranch:
		c.St.Branches++
		doneAt = execAt + 1
		if in.Mispredicted {
			c.St.Mispredicts++
			c.resolveMispredict(doneAt)
		}
	default:
		doneAt = execAt + 1
	}

	c.iq.add(execAt)
	c.doneHist[c.seq&255] = doneAt
	c.seq++

	c.rob[c.robTail] = robEntry{
		Kind:   in.Kind,
		Size:   in.Size,
		Addr:   in.Addr,
		PC:     in.PC,
		DoneAt: doneAt,
		SBSeq:  sbSeq,
	}
	c.robTail++
	if c.robTail == len(c.rob) {
		c.robTail = 0
	}
	c.robCount++
}

// resolveMispredict models a branch found mispredicted when it resolves at
// resolveAt: the front end refetches after the redirect penalty, and the
// wrong-path instructions fetched in between burn fetch slots, L1D tag
// energy, fill traffic, and — under at-execute — bogus ownership prefetches.
// The span (and hence the waste) shrinks when the branch's inputs arrive
// earlier, which is how SPB's load-side benefit cuts misspeculation (§VI.A).
func (c *Core) resolveMispredict(resolveAt uint64) {
	c.fetchReadyAt = resolveAt + uint64(c.cfg.MispredictPenalty)
	span := c.fetchReadyAt - c.St.Cycles
	wasted := span * uint64(c.cfg.Width)
	// The machine can only hold ROB + fetch-queue worth of wrong-path
	// work, no matter how long the branch takes to resolve.
	if maxWP := uint64(c.cfg.ROBSize + c.cfg.FetchQueue); wasted > maxWP {
		wasted = maxWP
	}
	c.St.WrongPathInsts += wasted

	// A quarter of wrong-path instructions are loads that reach the L1D,
	// clustered near the most recent demand addresses.
	nLoads := int(wasted / 4)
	if nLoads > maxWrongPathLoads {
		nLoads = maxWrongPathLoads
	}
	for i := 0; i < nLoads; i++ {
		delta := int64(c.rng.Intn(17)-8) * mem.BlockSize
		addr := mem.Addr(int64(c.lastLoadAddr) + delta)
		c.port.WrongPathLoad(addr, c.St.Cycles+uint64(i))
	}
	// At-execute speculatively prefetches ownership for wrong-path stores;
	// that is its documented downside versus at-commit.
	if c.policy == core.PolicyAtExecute {
		nStores := int(wasted / 16)
		if nStores > maxWrongPathStorePFs {
			nStores = maxWrongPathStorePFs
		}
		for i := 0; i < nStores; i++ {
			delta := int64(c.rng.Intn(5)-2) * mem.BlockSize
			addr := mem.Addr(int64(c.lastStoreAddr) + delta)
			c.port.PrefetchOwn(mem.BlockOf(addr), c.St.Cycles+uint64(i), false)
		}
	}
}

// occHeap tracks structure occupancy (IQ, LQ) as a calendar queue: a ring of
// per-cycle release counts covering the next occWindow cycles, with a tiny
// overflow min-heap for the rare release beyond the window. A bit per bucket
// says whether it holds a release, so expiry and the release-cycle search
// step from occupied bucket to occupied bucket, 64 empty cycles to a word,
// instead of sweeping the ring a cycle at a time — a core back from a DRAM
// stall or a long sleep pays for the releases it has, not for the cycles it
// was away.
type occHeap struct {
	buckets []uint16               // buckets[c&(occWindow-1)] = entries releasing at cycle c
	occ     [occWindow / 64]uint64 // bit i set = buckets[i] != 0
	cursor  uint64                 // every release < cursor has been expired
	count   int                    // live entries (ring + far)
	far     []uint64               // min-heap of releases >= cursor+occWindow
	scratch []uint64               // releaseCycle workspace, reused to stay alloc-free
}

// occWindow is the ring span in cycles; must be a power of two. Completion
// times beyond it (deep MSHR/DRAM queuing) spill into the far heap.
const occWindow = 1024

func (h *occHeap) add(release uint64) {
	if release < h.cursor {
		return // already expired for every future query
	}
	if h.buckets == nil {
		h.buckets = newOccBuckets()
	}
	if release-h.cursor >= occWindow {
		h.farPush(release)
	} else {
		h.ringAdd(release)
	}
	h.count++
}

func (h *occHeap) ringAdd(release uint64) {
	i := release & (occWindow - 1)
	h.buckets[i]++
	h.occ[i>>6] |= 1 << (i & 63)
}

// nextOccupied returns the first cycle in [c, end] whose bucket holds a
// release, or end+1 when none does. The span must fit the ring: c <= end <
// c+occWindow.
func (h *occHeap) nextOccupied(c, end uint64) uint64 {
	i := c & (occWindow - 1)
	if w := h.occ[i>>6] >> (i & 63); w != 0 {
		return min(c+uint64(bits.TrailingZeros64(w)), end+1)
	}
	// Word by word from the next boundary on; a span that wraps the ring ends
	// in the first word again, for the bits below i.
	for d := 64 - i&63; d <= end-c; d += 64 {
		if w := h.occ[(c+d)&(occWindow-1)>>6]; w != 0 {
			return min(c+d+uint64(bits.TrailingZeros64(w)), end+1)
		}
	}
	return end + 1
}

// occupancy expires entries released at or before t and returns the count
// still held. The common case — same cycle as the last query, nothing to
// expire — is a single compare, kept small enough to inline.
func (h *occHeap) occupancy(t uint64) int {
	if t < h.cursor {
		return h.count
	}
	return h.expireSlow(t)
}

func (h *occHeap) expireSlow(t uint64) int {
	// Ring releases all lie in [cursor, cursor+occWindow).
	if h.count > len(h.far) {
		end := min(t, h.cursor+occWindow-1)
		for c := h.cursor; c <= end; c++ {
			if c = h.nextOccupied(c, end); c > end {
				break
			}
			i := c & (occWindow - 1)
			h.count -= int(h.buckets[i])
			h.buckets[i] = 0
			h.occ[i>>6] &^= 1 << (i & 63)
		}
	}
	h.cursor = t + 1
	// Expired far entries leave; ones now inside the window join the ring.
	for len(h.far) > 0 {
		m := h.far[0]
		if m <= t {
			h.farPop()
			h.count--
		} else if m-h.cursor < occWindow {
			h.farPop()
			h.ringAdd(m)
		} else {
			break
		}
	}
	return h.count
}

// releaseCycle returns the first cycle at which fewer than threshold entries
// remain held, assuming occupancy(t) >= threshold was just evaluated (so
// every entry is unexpired). That is the k-th smallest release cycle with
// k = count - threshold + 1; because entries are only added while occupancy
// is below the threshold, k is 1 in practice and the first occupied bucket
// answers.
func (h *occHeap) releaseCycle(threshold int) uint64 {
	k := h.count - threshold + 1
	end := h.cursor + occWindow - 1
	for c := h.cursor; c <= end; c++ {
		if c = h.nextOccupied(c, end); c > end {
			break
		}
		if k -= int(h.buckets[c&(occWindow-1)]); k <= 0 {
			return c
		}
	}
	// The k-th smallest lies beyond the window, among the far releases.
	h.scratch = append(h.scratch[:0], h.far...)
	slices.Sort(h.scratch)
	return h.scratch[k-1]
}

func (h *occHeap) farPush(v uint64) {
	h.far = append(h.far, v)
	i := len(h.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.far[p] <= h.far[i] {
			break
		}
		h.far[p], h.far[i] = h.far[i], h.far[p]
		i = p
	}
}

func (h *occHeap) farPop() {
	last := len(h.far) - 1
	h.far[0] = h.far[last]
	h.far = h.far[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.far[l] < h.far[small] {
			small = l
		}
		if r < last && h.far[r] < h.far[small] {
			small = r
		}
		if small == i {
			break
		}
		h.far[i], h.far[small] = h.far[small], h.far[i]
		i = small
	}
}
