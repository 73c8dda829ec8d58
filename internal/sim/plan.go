package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"spb/internal/config"
	"spb/internal/cpu"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/obs"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// The run plan (DESIGN.md §12).
//
// A run is a sequence of segments over one machine in one monotone cycle
// domain. The sequence is a pure function of the normalized spec, so a
// position in it — a segment count — names a point of the run exactly. A run
// starts in one of two places: sim.Run starts at segment 0 on a cold machine,
// in place; the Runner starts a warmed spec at segment 1 from its group's
// snapshot. sim.Run is the reference the Runner is tested against.

// segKind is how a segment covers its instructions.
type segKind uint8

const (
	// segSkip advances the instruction streams and touches nothing else.
	// Nothing is measured after a run's last detailed segment, so its tail
	// only drains.
	segSkip segKind = iota
	// segTouch also replays every skipped access's footprint against the
	// shared LLC and the coherence directory (Port.WarmTouch). Their history
	// is as long as the LLC's capacity — often longer than a sampling period —
	// so they must see every skipped instruction; the private caches and TLBs
	// have short histories that the segWarm tail before each detailed segment
	// rebuilds.
	segTouch
	// segWarm replays every instruction against caches, directory and TLBs:
	// no timing, no statistics (memsys/warm.go).
	segWarm
	// segDetail simulates the instructions on core pipelines.
	segDetail
)

// segment is one step of a plan: n instructions per core, covered as kind
// says.
type segment struct {
	kind segKind
	n    uint64
	// trainPF (segWarm) also feeds every access to the generic prefetchers, so
	// a detailed segment opens with them trained. The warm-up prefix does not:
	// its snapshot is shared by specs of every prefetcher kind.
	trainPF bool
	// from, to (segDetail) bound the measured window in instructions committed
	// per core since the segment began. The segment always runs to completion
	// — the store buffer drains into the caches — so the next segment starts
	// from a consistent architectural state; a window open to math.MaxUint64
	// closes there.
	from, to uint64
}

// eachSegment calls visit with every non-empty segment of the spec's plan, in
// order, with its index; it stops at visit's first error and returns it.
//
// Full detail is [warm WarmupInsts][detail Insts, measured to completion]. A
// sampled run keeps the warm-up and then, per sampling period, places the
// detailed segment (WarmInsts unmeasured, DetailedInsts measured) at a
// pseudo-random offset — a fixed placement would alias with a workload whose
// phase period divides the sampling period — and covers the gap before it
// functionally: all of it warmed, or with a bounded HistoryInsts only its tail,
// the head merely touched. The gap runs from the previous detailed segment to
// this one, across the period boundary, so the bound applies to the contiguous
// distance to the measurement. The xorshift sequence depends only on the seed:
// same spec, same plan.
func (s RunSpec) eachSegment(visit func(k uint64, seg segment) error) error {
	k := uint64(0)
	emit := func(seg segment) error {
		if seg.n == 0 {
			return nil
		}
		k++
		return visit(k-1, seg)
	}
	if err := emit(s.warmup()); err != nil {
		return err
	}
	cfg := s.Sampling
	if !cfg.Enabled() {
		return emit(segment{kind: segDetail, n: s.Insts, to: math.MaxUint64})
	}
	jitter := s.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	gap := uint64(0)
	for remaining := s.Insts; remaining > 0; {
		span := min(cfg.IntervalInsts, remaining)
		remaining -= span
		dk := min(cfg.DetailedInsts, span)
		wk := min(cfg.WarmInsts, span-dk)
		after := span - wk - dk
		if after > 0 {
			jitter ^= jitter << 13
			jitter ^= jitter >> 7
			jitter ^= jitter << 17
			before := jitter % (after + 1)
			gap += before
			after -= before
		}
		warm := gap
		if h := cfg.HistoryInsts; h > 0 && gap > h {
			warm = h
		}
		for _, seg := range [...]segment{
			{kind: segTouch, n: gap - warm},
			{kind: segWarm, n: warm, trainPF: true},
			{kind: segDetail, n: wk + dk, from: wk, to: wk + dk},
		} {
			if err := emit(seg); err != nil {
				return err
			}
		}
		gap = after
	}
	return emit(segment{kind: segSkip, n: gap})
}

// warmup is the functional-warming prefix: segment 0 of every plan that has
// one, and the only segment a warm-start group executes.
func (s RunSpec) warmup() segment { return segment{kind: segWarm, n: s.WarmupInsts} }

// machine owns everything that lives between the segments of a run: the
// memory system, the TLBs (cores exist only inside a detailed segment, and
// borrow them), the instruction streams and how far they have been consumed,
// and the cycle the next detailed segment starts at.
type machine struct {
	spec  RunSpec
	cfg   config.MachineConfig
	sys   *memsys.System
	dtlbs []*tlb.TLB
	progs []*trace.Program
	// consumed is the per-core instruction count the streams stand at, at the
	// last segment edge.
	consumed uint64
	// cycleBase carries the clock across detailed segments: the memory system
	// stamps its state with absolute cycles, so each segment's cores continue
	// where the previous segment's stopped. Functional segments advance no
	// cycles — anything left in flight is simply ready when the next detailed
	// segment begins, which is what the elided gap would have done.
	cycleBase uint64
}

// newMachine builds the cold machine of a normalized spec, on progs or, when
// nil, on the streams its workload builds. The caller releases it.
func newMachine(spec RunSpec, progs []*trace.Program) (*machine, error) {
	cfg, err := spec.machineConfig()
	if err != nil {
		return nil, err
	}
	if progs == nil {
		if progs, err = buildReaders(spec); err != nil {
			return nil, err
		}
	}
	m := &machine{
		spec: spec, cfg: cfg, progs: progs,
		sys:   memsys.New(cfg, spec.Cores),
		dtlbs: make([]*tlb.TLB, spec.Cores),
	}
	for i := range m.dtlbs {
		m.dtlbs[i] = tlb.New(cfg.TLB)
	}
	return m, nil
}

// release hands the machine's large arrays back to their pools.
func (m *machine) release() {
	for _, t := range m.dtlbs {
		t.Release()
	}
	m.sys.Release()
}

// machineState is a machine at a segment edge, as a deep copy that shares no
// memory with it: a warm-start group's in-memory snapshot. The generic
// prefetchers are not part of it: the members that start from it differ in
// prefetcher kind (see Runner.buildWarm).
type machineState struct {
	Sys       *memsys.SystemSnapshot
	DTLBs     []*tlb.Snapshot
	Consumed  uint64
	CycleBase uint64
	// progs are the stream cursors, cloned: replaying a long warm-up once per
	// fork would cost what the shared snapshot saves.
	progs []*trace.Program
}

func (m *machine) state() *machineState {
	st := &machineState{
		Sys:       m.sys.Snapshot(),
		DTLBs:     make([]*tlb.Snapshot, len(m.dtlbs)),
		Consumed:  m.consumed,
		CycleBase: m.cycleBase,
		progs:     trace.ClonePrograms(m.progs),
	}
	for i, t := range m.dtlbs {
		st.DTLBs[i] = t.Snapshot()
	}
	return st
}

// restore loads a state taken in this process into a cold machine of the
// same spec; the machine gets clones of its stream cursors.
func (m *machine) restore(st *machineState) {
	m.progs = trace.ClonePrograms(st.progs)
	m.sys.Restore(st.Sys)
	for i, t := range m.dtlbs {
		t.Restore(st.DTLBs[i])
	}
	m.consumed, m.cycleBase = st.Consumed, st.CycleBase
}

// warmMemo elides redundant warm accesses: per core, the block and PC of
// the immediately preceding memory access. Re-touching the most recent
// block is a state no-op — the line is already MRU, the TLB entry is already
// MRU (same block ⇒ same page), a repeat store to an already-Modified line
// changes nothing, and a same-PC same-block repeat is a zero-delta no-op for
// the stream prefetcher too. A store after a load is NOT elidable (it may
// need a directory upgrade), so the memo also records whether the line is
// known writable; an access from a different PC is not elidable either (it
// would train a different prefetcher table entry).
type warmMemo struct {
	block    mem.Block
	pc       uint64
	writable bool
	valid    bool
}

// functional covers a non-detailed segment. A warm segment replays round-robin
// — one instruction per core per round, matching in-order multi-core
// interleaving. Skip and touch segments advance the streams one after another
// instead, in bulk: every stream owns its RNG and region cursors, so with no
// private state touched the order cannot matter to a skip, and the LLC
// interleaving a touch produces, coarser than the real one, is acceptable for
// functional warming. ctx is polled between chunks of each.
func (m *machine) functional(ctx context.Context, seg segment) error {
	lanes, chunk := len(m.progs), uint64(progressEvery)*64
	var w *warmer
	switch seg.kind {
	case segWarm:
		lanes, chunk = 1, progressEvery
		w = m.newWarmer(seg.trainPF)
	case segTouch:
		// Dense burst ops surface their footprint as O(1) spans, so this tier
		// costs only a little more than a skip; it is still polled more often.
		chunk = progressEvery * 8
	}
	for lane := 0; lane < lanes; lane++ {
		for left := seg.n; left > 0; {
			if err := ctx.Err(); err != nil {
				return err
			}
			k := min(left, chunk)
			switch seg.kind {
			case segSkip:
				m.progs[lane].Skip(k)
			case segTouch:
				m.progs[lane].SkipTouch(k, m.sys.Port(lane).WarmTouch)
			case segWarm:
				w.warm(k)
			}
			left -= k
		}
	}
	m.consumed += seg.n
	return nil
}

// warmer is the sink of one warm segment: what Program.Warm reports, replayed
// against the memory system and the TLBs. Its closures are built once for the
// segment, so warming allocates nothing per chunk or per access. With trainPF
// an access also trains the port's generic prefetcher (Port.WarmObserve).
type warmer struct {
	m       *machine
	trainPF bool
	memos   []warmMemo
	access  []func(pc uint64, addr mem.Addr, store bool) // per core
}

func (m *machine) newWarmer(trainPF bool) *warmer {
	w := &warmer{
		m: m, trainPF: trainPF,
		memos:  make([]warmMemo, len(m.progs)),
		access: make([]func(uint64, mem.Addr, bool), len(m.progs)),
	}
	for i := range m.progs {
		w.access[i] = func(pc uint64, addr mem.Addr, store bool) { w.touch(i, pc, addr, store) }
	}
	return w
}

// warm replays n instructions per core. One core hands its program the whole
// budget, and the walk steps over a dense op's same-block repeats itself — a
// subset of what the memo below would drop, since within one call nothing
// comes between an access and its repeat. Several cores take a budget of one
// instruction per core per round: the interleaving is the round-robin one,
// access for access, and the walk, which never elides across calls, leaves
// every repeat to the memo and its kill rule.
func (w *warmer) warm(n uint64) {
	budget := uint64(1)
	if len(w.m.progs) == 1 {
		budget = n
	}
	for ; n > 0; n -= budget {
		for i, p := range w.m.progs {
			p.Warm(budget, w.access[i])
		}
	}
}

// touch replays one access of core i. Consecutive same-block accesses take the
// warmMemo fast path. In multi-core interleavings one core's real access can
// downgrade, invalidate or back-invalidate another core's line, so every real
// access kills the other cores' memos; single-core warming keeps its memo
// across the whole segment.
func (w *warmer) touch(i int, pc uint64, addr mem.Addr, store bool) {
	b := mem.BlockOf(addr)
	if mm := &w.memos[i]; mm.valid && mm.block == b && mm.pc == pc && (mm.writable || !store) {
		return
	}
	w.m.dtlbs[i].Warm(addr)
	port := w.m.sys.Port(i)
	var hit bool
	if store {
		hit = port.WarmStore(addr)
	} else {
		hit = port.WarmLoad(addr)
	}
	if w.trainPF {
		port.WarmObserve(pc, addr, !hit, store)
	}
	w.memos[i] = warmMemo{block: b, pc: pc, writable: store, valid: true}
	for j := range w.memos {
		if j != i {
			w.memos[j].valid = false
		}
	}
}

// window is the measurement state of one detailed segment: per core, the
// counters at the commit that opened the window and at the one that closed
// it, and the memory system's when the last core did either.
type window struct {
	Start, End       []cpu.Stats
	Started, Ended   []bool
	NStarted, NEnded int
	MemStart, MemEnd MemStats
}

func newWindow(cores int) *window {
	return &window{
		Start: make([]cpu.Stats, cores), End: make([]cpu.Stats, cores),
		Started: make([]bool, cores), Ended: make([]bool, cores),
	}
}

// capture records the crossings the last step produced. It runs on the state a
// step leaves behind (and once before the first, for a window that opens at
// zero); a core crosses a threshold by committing, in a tick, so no crossing
// is slept over.
func (w *window) capture(cores []*cpu.Core, from, to uint64, sys *memsys.System) {
	if w.NStarted == len(cores) && (w.NEnded == len(cores) || to == math.MaxUint64) {
		return
	}
	for i, c := range cores {
		if !w.Started[i] && c.St.Committed >= from {
			w.Started[i], w.Start[i] = true, c.St
			if w.NStarted++; w.NStarted == len(cores) {
				w.MemStart = collectMem(sys)
			}
		}
		if w.Started[i] && !w.Ended[i] && c.St.Committed >= to {
			w.Ended[i], w.End[i] = true, c.St
			if w.NEnded++; w.NEnded == len(cores) {
				w.MemEnd = collectMem(sys)
			}
		}
	}
}

// cycles is the span the window has measured so far: the longest of the
// cores' (the aggregate convention: cycles = max, everything else = sum).
func (w *window) cycles(cores []*cpu.Core) uint64 {
	span := uint64(0)
	for i, c := range cores {
		end := c.St.Cycles
		if w.Ended[i] {
			end = w.End[i].Cycles
		}
		if w.Started[i] {
			span = max(span, end-w.Start[i].Cycles)
		}
	}
	return span
}

// cursor is a run's position in its plan and what it has accumulated on the
// way.
type cursor struct {
	// Seg counts the segments completed.
	Seg uint64
	// Instructions covered so far, over all cores: functionally (the warm-up
	// prefix included), in detail (unmeasured detailed warming included), and
	// inside measured windows.
	FFInsts, DetailedInsts, MeasuredInsts uint64
	// CPU and Mem sum the measured windows.
	CPU cpu.Stats
	Mem MemStats
	Acc sampleAccum
}

// run is one execution of a plan on a machine.
type run struct {
	m          *machine
	cur        cursor
	onProgress func(Progress)
	began      time.Time
}

// report delivers a Progress point: committed and cycles are the open detailed
// segment's contribution, if one is open.
func (r *run) report(committed, cycles uint64) {
	if r.onProgress == nil {
		return
	}
	spec := r.m.spec
	p := Progress{
		// Committed counts detail-simulated instructions only; functional
		// segments ride in FastForwardInsts so they cannot inflate the
		// detailed-simulation rate.
		Committed:        r.cur.DetailedInsts + committed,
		Cycles:           r.cur.CPU.Cycles + cycles,
		TargetInsts:      spec.Insts * uint64(spec.Cores),
		FastForwardInsts: r.cur.FFInsts,
	}
	if el := time.Since(r.began).Seconds(); el > 0 {
		p.InstsPerSec = float64(p.Committed) / el
	}
	r.onProgress(p)
}

// buildCores constructs the pipelines of a detailed segment on the machine's
// TLBs, each budgeted to n instructions of its stream from the current
// position on, with clocks opening at the cycle base (cpu.Options.StartCycle).
func (m *machine) buildCores(n uint64) []*cpu.Core {
	spec := m.spec
	opts := cpu.Options{
		CoalesceSB:         spec.CoalesceSB,
		BackwardBursts:     spec.BackwardBursts,
		CrossPageBursts:    spec.CrossPageBursts,
		DisableFastForward: spec.perCycle,
		StartCycle:         m.cycleBase,
	}
	cores := make([]*cpu.Core, spec.Cores)
	for i := range cores {
		cores[i] = cpu.NewWithOptions(m.cfg.Core, spec.Policy, m.cfg.SPB, m.dtlbs[i], opts,
			m.sys.Port(i), trace.Limit(n, m.progs[i]), spec.Seed+uint64(i)*7919)
	}
	return cores
}

// detail covers a detailed segment: cores built, the lock-step loop, the cores
// released, the measured window folded into the cursor.
func (r *run) detail(ctx context.Context, seg segment) error {
	m, spec := r.m, r.m.spec
	nCores := uint64(spec.Cores)
	cores := m.buildCores(seg.n)
	defer func() {
		for _, c := range cores {
			c.Release()
		}
	}()
	w := newWindow(len(cores))
	w.capture(cores, seg.from, seg.to, m.sys)
	err := cpu.Lockstep(ctx, cores, seg.n*1000*nCores+1_000_000, func(steps uint64) (bool, error) {
		w.capture(cores, seg.from, seg.to, m.sys)
		if steps%progressEvery != 0 {
			return false, nil
		}
		committed := uint64(0)
		for _, c := range cores {
			committed += c.St.Committed
		}
		r.report(committed, w.cycles(cores))
		return false, nil
	})
	if err != nil {
		if err == ctx.Err() {
			return err
		}
		return fmt.Errorf("sim: %v: %w", spec, err)
	}
	// A core that never reached a threshold closes its window at its final
	// state.
	w.capture(cores, 0, 0, m.sys)

	for _, c := range cores {
		m.cycleBase = max(m.cycleBase, c.St.Cycles)
	}
	m.consumed += seg.n

	var iv cpu.Stats
	for i := range cores {
		d := subCounters(cpuCounters, w.Start[i], w.End[i])
		iv.Cycles, d.Cycles = max(iv.Cycles, d.Cycles), 0
		addCounters(cpuCounters, &iv, d)
	}
	ivMem := subCounters(memCounters, w.MemStart, w.MemEnd)
	addCounters(cpuCounters, &r.cur.CPU, iv)
	addCounters(memCounters, &r.cur.Mem, ivMem)
	r.cur.DetailedInsts += seg.n * nCores
	r.cur.MeasuredInsts += iv.Committed
	if iv.Cycles > 0 && iv.Committed > 0 {
		r.cur.Acc.add(iv, ivMem)
	}
	return nil
}

// startPoint is where a run begins other than cold: a position in the plan and
// the machine's state there.
type startPoint struct {
	Cur   cursor
	State *machineState
}

// runPlan executes a normalized spec's plan and collects the Result. start is
// where the machine begins: nil is a cold machine at segment 0; otherwise the
// state is restored and the plan entered at the start's cursor, which does not
// change the statistics produced. progs are the streams of a cold machine; nil
// builds the spec's workload.
func runPlan(ctx context.Context, spec RunSpec, start *startPoint, progs []*trace.Program, onProgress func(Progress)) (Result, error) {
	// When the caller's context carries an obs.Trace (the spbd request path
	// does), the run's phases are recorded as sub-spans of the job-level "run"
	// span. With no trace in ctx the nil *Trace no-ops and nothing allocates.
	tr := obs.FromContext(ctx)
	span := tr.StartSpan("run.build")
	m, err := newMachine(spec, progs)
	if err != nil {
		return Result{}, err
	}
	defer m.release()
	r := &run{m: m, onProgress: onProgress, began: time.Now()}
	if start != nil {
		m.restore(start.State)
		r.cur = start.Cur
	}
	span.End()

	span = tr.StartSpan("run.sim")
	nCores := uint64(spec.Cores)
	err = spec.eachSegment(func(k uint64, seg segment) error {
		if k < r.cur.Seg {
			return nil
		}
		var err error
		if seg.kind == segDetail {
			err = r.detail(ctx, seg)
		} else {
			err = m.functional(ctx, seg)
			r.cur.FFInsts += seg.n * nCores
		}
		if err != nil {
			return err
		}
		r.cur.Seg = k + 1
		r.report(0, 0)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	span.End()

	span = tr.StartSpan("run.collect")
	defer span.End()
	res := finishResult(spec, r.cur.CPU, r.cur.Mem)
	if spec.Sampling.Enabled() {
		res.Sample = SampleStats{
			Intervals:        r.cur.Acc.n,
			MeasuredInsts:    r.cur.MeasuredInsts,
			DetailedInsts:    r.cur.DetailedInsts,
			FastForwardInsts: r.cur.FFInsts - spec.WarmupInsts*nCores,
		}
		r.cur.Acc.finalize(&res.Sample)
	}
	return res, nil
}
