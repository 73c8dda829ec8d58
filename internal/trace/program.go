package trace

import (
	"slices"

	"spb/internal/mem"
)

// This file implements the one way a stream is written, a workload
// generator, in three parts.
//
// The shape is what a workload is: a table of weighted Phases, each a sequence
// of Leaves, fixed once NewProgram has completed it and shared by every fork
// of the stream. A dense leaf — memset, memcpy, read-modify-write, a strided
// run — is stated once, as a template: the micro-ops of one element, the bytes
// an element advances, the element count and the chunk an activation draws
// (Leaf.dense). Next, Skip, SkipTouch, Warm and Leaf.Insts all read that
// template, so a new dense op is one template row. The ops that draw from the
// RNG for every instruction (chase, scatter, compute, load-use) keep one case
// where instructions are built and one where they are walked: the draws are
// their cost, and a shared body would branch on every instruction of the
// detailed path. A replay leaf (OpReplay) reads a recorded trace's
// instructions (OpenTrace) from the shape in both places, so a replayed
// stream runs under every call a written one does.
//
// The cursor is where a stream stands: the generator's state word, the
// regions' chunk cursors, the position in the table and in the current
// activation, and the cursors of any sub-programs. It is a plain value: a fork
// (Clone, DESIGN.md §12) copies it and nothing of the shape.
//
// The reference is test-only: program_test.go expands each activation with a
// plain loop written from the Op definitions below, not from the templates,
// and runs the pick loop Program documents. FuzzLeafWrittenOnce holds Next to
// it instruction for instruction, and TestWorkloadStreamsPinned
// (internal/workloads) pins the streams the shipped workloads emit.

// Op is what a Leaf emits each activation. Each definition below is whole:
// the chunks the activation draws, every instruction in order with the fields
// it sets (the others are zero), and every RNG draw in the order it is made.
// "A chunk of n bytes of R" is R.NextChunk(n); "a random word of R" is
// R.RandomAddr(rng, 8, 8).
type Op uint8

const (
	// OpMemset draws a chunk of Bytes bytes of Dst and emits ceil(Bytes/Size)
	// stores of Size bytes, Size bytes apart from the chunk's base, at PC.
	OpMemset Op = iota
	// OpMemcpy draws a chunk of Bytes bytes of Src, then one of Dst, and for
	// each of the ceil(Bytes/8) words, at offset o, emits an 8-byte load of
	// Src's chunk + o at PC, then an 8-byte store to Dst's chunk + o with Dep1
	// 1 (it writes what the load read) at PC+4.
	OpMemcpy
	// OpRMW draws a chunk of Bytes bytes of Dst and for each of the
	// ceil(Bytes/8) words, at offset o, emits an 8-byte load of chunk + o at
	// PC, an IntALU with Dep1 1 at PC+4, and an 8-byte store to chunk + o with
	// Dep1 1 at PC+8.
	OpRMW
	// OpStridedStores draws a chunk of Count*Stride bytes of Dst and emits
	// Count stores of Size bytes, Stride bytes apart from the chunk's base, at
	// PC.
	OpStridedStores
	// OpStridedLoads draws a chunk of Count*Stride bytes of Dst and emits
	// Count 8-byte loads, Stride bytes apart from the chunk's base, at PC.
	OpStridedLoads
	// OpPointerChase emits Count 8-byte loads at PC, each at a random word of
	// Dst and each but the first with Dep1 1: a serial chain of misses.
	OpPointerChase
	// OpScatterStores emits Count 8-byte stores at PC, each at a random word of
	// Dst.
	OpScatterStores
	// OpCompute emits Compute.Count instructions, the i-th (from 1) at
	// Compute.PC + (i mod 64)*4. Each first draws Bool(BrFrac). A branch has
	// Dep1 1, is taken unless it is the activation's 8th, 16th, … branch (a
	// short loop), and draws Bool(MissRate) for Mispredicted. Any other
	// instruction draws fp = Bool(FPFrac), then Bool(DivFrac) for a divide,
	// failing that Bool(MulFrac) for a multiply, failing that it is an ALU op
	// — each FP if fp, else integer — and last draws Bool(DepFrac) for Dep1 =
	// 1 + Intn(4).
	OpCompute
	// OpLoadUse emits Count pairs: an 8-byte load at a random word of Dst at
	// PC, then a branch with Dep1 1 at PC+4 that draws Bool(0.85) for Taken,
	// then Bool(MissRate) for Mispredicted.
	OpLoadUse
	// OpReplay emits Records in order, each exactly as recorded, and draws
	// nothing.
	OpReplay
)

// Leaf is one op with its parameters; which fields matter depends on Op (see
// its definition).
type Leaf struct {
	Op Op
	// Dst is the region streamed or scattered through, Src the source of a
	// memcpy. Leaves naming the same region share its chunk cursor within
	// their Program; each Program keeps cursors of its own.
	Dst, Src *MemRegion

	Bytes  uint64 // burst size (memset, memcpy, read-modify-write)
	Count  int    // element count (strided/chase/scatter/load-use)
	Stride uint64 // byte distance between strided elements
	Size   int    // store size (memset, strided stores), at least 1

	PC       uint64
	MissRate float64        // load-use branch misprediction probability
	Compute  ComputeOptions // compute-block parameters
	// Records is what a replay leaf emits: part of the shape, shared by every
	// clone, never changed.
	Records []Inst

	// Repeat runs the leaf that many consecutive activations, each drawing
	// chunks of its own; 0 means once.
	Repeat int

	// Set by NewProgram: Dst and Src as indices into the cursor's regions, the
	// dense template, and OpCompute's fractions as RNG.below thresholds — the
	// draws a walk reads (the first three) or emit makes, once per instruction.
	dst, src int
	template
	brBelow, divBelow, depBelow, missBelow, fpBelow, mulBelow uint64
}

// ComputeOptions shapes an OpCompute leaf.
type ComputeOptions struct {
	Count    int     // instructions to emit
	FPFrac   float64 // fraction that are floating point
	MulFrac  float64 // fraction of arithmetic that are multiplies
	DivFrac  float64 // fraction of arithmetic that are divides
	DepFrac  float64 // fraction with a short register dependence
	BrFrac   float64 // fraction that are branches
	MissRate float64 // branch misprediction probability
	PC       uint64
}

// MemRegion is a contiguous address range a workload streams or scatters
// accesses through. Dense leaves advance cur and wrap; the wrap-around working
// set determines which cache level the stream misses to.
type MemRegion struct {
	Base mem.Addr
	Size uint64
	cur  uint64
}

// NewMemRegion returns a region of size bytes starting at base. Base and
// size are aligned down/up to page boundaries so bursts line up with the
// pages SPB prefetches.
func NewMemRegion(base mem.Addr, size uint64) *MemRegion {
	b := mem.AlignDown(base, mem.PageSize)
	if size < mem.PageSize {
		size = mem.PageSize
	}
	size = size &^ (mem.PageSize - 1)
	return &MemRegion{Base: b, Size: size}
}

// NextChunk reserves the next n bytes of the region (wrapping to the start
// when exhausted) and returns the chunk's base address.
func (r *MemRegion) NextChunk(n uint64) mem.Addr {
	if n > r.Size {
		n = r.Size
	}
	if r.cur+n > r.Size {
		r.cur = 0
	}
	a := r.Base + mem.Addr(r.cur)
	r.cur += n
	return a
}

// RandomAddr returns a pseudo-random address inside the region aligned to
// align bytes (a power of two), leaving room bytes before the region end.
func (r *MemRegion) RandomAddr(rng *RNG, align, room uint64) mem.Addr {
	span := r.Size
	if span > room {
		span -= room
	}
	off := rng.Uint64() % span
	return mem.AlignDown(r.Base+mem.Addr(off), align)
}

// template is the activation of a dense op: elems elements adv bytes apart,
// each the micro-ops of slots[:period] in order, over a chunk of that many
// bytes drawn from the region of every slot that addresses one (the source
// first).
type template struct {
	slots  [3]slot
	period int // slots in use; 0 for an op that is not dense
	elems  int
	adv    uint64
	chunk  uint64
}

// slot is one micro-op of an element: the instruction as emitted, less the
// address, which a memory slot takes from its element's offset in the current
// chunk of Dst (reg 0) or Src (reg 1).
type slot struct {
	Inst
	reg uint8
}

// dense returns the leaf's template: the one place each dense op is spelled
// out. An op that draws per instruction has none (period 0).
func (l *Leaf) dense() template {
	load := func(reg uint8) slot { return slot{Inst{Kind: KindLoad, Size: 8, PC: l.PC}, reg} }
	store := func(size int, dep uint8, pc uint64) slot {
		return slot{Inst: Inst{Kind: KindStore, Size: uint8(size), Dep1: dep, PC: l.PC + pc}}
	}
	words, run := int((l.Bytes+7)/8), uint64(l.Count)*l.Stride
	switch l.Op {
	case OpMemset:
		size := uint64(l.Size)
		return template{[3]slot{store(l.Size, 0, 0)}, 1, int((l.Bytes + size - 1) / size), size, l.Bytes}
	case OpMemcpy: // the store writes what the load before it read
		return template{[3]slot{load(1), store(8, 1, 4)}, 2, words, 8, l.Bytes}
	case OpRMW:
		alu := slot{Inst: Inst{Kind: KindIntALU, Dep1: 1, PC: l.PC + 4}}
		return template{[3]slot{load(0), alu, store(8, 1, 8)}, 3, words, 8, l.Bytes}
	case OpStridedStores:
		return template{[3]slot{store(l.Size, 0, 0)}, 1, l.Count, l.Stride, run}
	case OpStridedLoads:
		return template{[3]slot{load(0)}, 1, l.Count, l.Stride, run}
	}
	return template{}
}

// Insts returns how many instructions the leaf emits each time its phase
// reaches it, repeats included.
func (l *Leaf) Insts() int {
	var n int
	switch l.Op {
	case OpPointerChase, OpScatterStores:
		n = l.Count
	case OpCompute:
		n = l.Compute.Count
	case OpLoadUse:
		n = 2 * l.Count
	case OpReplay:
		n = len(l.Records)
	default:
		t := l.dense()
		n = t.elems * t.period
	}
	return n * max(l.Repeat, 1)
}

// Phase is one weighted alternative of a Program's pick loop: either a
// sequence of Leaves run in order to completion, or Take instructions drawn
// from a persistent sub-program (the PARSEC private-stream case). The
// sub-program becomes part of the Program it is handed to.
type Phase struct {
	Weight int
	Leaves []Leaf

	Sub  *Program
	Take uint64

	sub int // Sub's index in the cursor's subs, set by NewProgram
}

// Program is a workload generator. It loops forever: immediately before a
// phase's first instruction it picks the phase by weight — one
// rng.Intn(total weight), counted off the phases in order — and runs it to
// completion: its leaves in order, each for max(Repeat, 1) activations, or
// Take instructions drawn from Sub. It implements Reader.
type Program struct {
	// The shape: fixed by NewProgram, shared by every clone.
	phases []Phase
	total  int

	cursor
}

// cursor is everything a running Program changes, and so all a fork copies.
type cursor struct {
	rng  RNG
	regs []MemRegion // the leaves' regions, each with its chunk cursor
	subs []*Program  // the Sub phases' programs

	// Current phase.
	phase    *Phase
	leafIdx  int
	takeLeft uint64 // instructions a Sub phase has yet to draw

	// Current leaf activation.
	leaf     *Leaf
	active   bool
	reps     int
	base     [2]mem.Addr // current chunk bases: Dst's, Src's
	i        int         // element
	step     int         // micro-op within the element
	branches int
}

// NewProgram builds a program over the given phases, which become its shape:
// it completes them in place and they must not be changed afterwards. The
// program draws from a generator of its own, started in rng's state, and
// allocates chunks from its own copy of each region its leaves name. A
// negative weight or an all-zero total panics.
func NewProgram(rng *RNG, phases ...Phase) *Program {
	p := &Program{phases: phases}
	p.rng = *rng
	seen := make([]*MemRegion, 0, 8)
	index := func(r *MemRegion) int {
		i := slices.Index(seen, r)
		if i < 0 && r != nil {
			i, seen = len(seen), append(seen, r)
		}
		return i
	}
	for i := range phases {
		ph := &phases[i]
		if ph.Weight < 0 {
			panic("trace: negative Program phase weight")
		}
		p.total += ph.Weight
		if ph.Sub == nil {
			ph.Take = 0
		} else {
			ph.sub, p.subs = len(p.subs), append(p.subs, ph.Sub)
		}
		for j := range ph.Leaves {
			l := &ph.Leaves[j]
			l.dst, l.src, l.template = index(l.Dst), index(l.Src), l.dense()
			l.brBelow, l.divBelow, l.depBelow = threshold(l.Compute.BrFrac), threshold(l.Compute.DivFrac), threshold(l.Compute.DepFrac)
			l.missBelow, l.fpBelow, l.mulBelow = threshold(l.Compute.MissRate), threshold(l.Compute.FPFrac), threshold(l.Compute.MulFrac)
		}
	}
	if p.total == 0 {
		panic("trace: Program with zero total weight")
	}
	p.regs = make([]MemRegion, len(seen))
	for i, r := range seen {
		p.regs[i] = *r
	}
	return p
}

// pick selects the next phase by weight, consuming one rng.Intn, and resets
// the phase cursor.
func (p *Program) pick() {
	n := p.rng.Intn(p.total)
	idx := len(p.phases) - 1
	for k := range p.phases {
		if n < p.phases[k].Weight {
			idx = k
			break
		}
		n -= p.phases[k].Weight
	}
	p.phase = &p.phases[idx]
	p.leafIdx, p.takeLeft = 0, p.phase.Take
}

// activate starts one activation of the current leaf, drawing a dense leaf's
// chunks in the order its Op defines (memcpy: Src then Dst).
func (p *Program) activate() {
	l := p.leaf
	p.i, p.step, p.branches = 0, 0, 0
	if l.period == 0 {
		return
	}
	if l.src >= 0 {
		p.base[1] = p.regs[l.src].NextChunk(l.chunk)
	}
	p.base[0] = p.regs[l.dst].NextChunk(l.chunk)
}

// advance moves the cursor off an activation that has run dry, or off none,
// onto the next thing that can yield instructions: the leaf's next repeat,
// the phase's next leaf, or a freshly picked phase's first leaf or Take. It is
// called only when an instruction is wanted, so picks and chunk draws happen
// as lazily under Skip and Warm as under Next.
func (p *Program) advance() {
	if p.active {
		if p.reps--; p.reps > 0 {
			p.activate()
			return
		}
		p.active = false
		p.leafIdx++
	}
	for p.phase == nil || p.leafIdx >= len(p.phase.Leaves) {
		if p.pick(); p.takeLeft > 0 {
			return
		}
	}
	p.leaf = &p.phase.Leaves[p.leafIdx]
	p.reps = max(p.leaf.Repeat, 1)
	p.activate()
	p.active = true
}

// Next implements Reader.
func (p *Program) Next(out *Inst) bool {
	for {
		switch {
		case p.active:
			if p.emit(out) {
				return true
			}
		case p.takeLeft > 0:
			p.takeLeft--
			return p.subs[p.phase.sub].Next(out)
		}
		p.advance()
	}
}

// LimitReader produces at most a fixed number of instructions from an
// underlying reader. The simulator wraps every core's stream in one, making
// its Next the hot entry point of trace generation.
type LimitReader struct {
	r    Reader
	n    uint64
	seen uint64
}

// Limit returns a reader producing at most n instructions from r.
func Limit(n uint64, r Reader) *LimitReader {
	return &LimitReader{r: r, n: n}
}

// Next implements Reader.
func (l *LimitReader) Next(out *Inst) bool {
	if l.seen >= l.n {
		return false
	}
	if !l.r.Next(out) {
		return false
	}
	l.seen++
	return true
}

// Skip advances the stream by exactly n instructions, leaving the program in
// the state n successful Next calls would: the same phase picks, chunk draws
// and RNG consumption, so interleaving Skip with Next is indistinguishable
// from calling Next alone (TestProgramSkipEquivalence). Activations whose
// instructions carry no per-instruction randomness — the dense burst ops —
// are jumped in constant time; RNG-consuming ops replay their draws without
// materializing instructions. Sampled runs use this to drain the unwarmed
// head of each inter-window skip at a fraction of Next's cost.
func (p *Program) Skip(n uint64) { p.walk(n, &sink{}) }

// Touch receives the memory footprint of skipped instructions: addr is the
// first byte of a touched span, n its length, store whether the span is
// written. Dense burst ops report one span per activation segment (the
// consumer iterates its blocks); randomly-addressed ops report each access.
type Touch func(addr mem.Addr, n uint64, store bool)

// SkipTouch is Skip with a footprint callback: the stream state advances
// exactly as Skip does, and touch additionally receives every skipped memory
// access at byte-span granularity. This is what lets a sampled run keep the
// large, long-history structures — the shared LLC and the coherence
// directory — continuously warm across skips at near-Skip cost: the dense
// ops (the bulk of the store-burst workloads) yield their footprint as O(1)
// spans instead of materialized instructions, and the RNG-addressed ops
// surface the very draws Skip must replay anyway. A nil touch is exactly
// Skip.
func (p *Program) SkipTouch(n uint64, touch Touch) { p.walk(n, &sink{touch: touch}) }

// Warm is Skip for a consumer that replays the stream against per-access
// state — caches, TLB, prefetcher tables: the program advances exactly as n
// Next calls would, and access receives every load and store of those n
// instructions in program order, with its PC, without an Inst being built.
//
// Within one call, an access to the same block, from the same PC and of the
// same kind as the access reported immediately before it is dropped: seven of
// every eight stores of a memset, and likewise a strided run whose stride is
// below the block size. To such a consumer the repeat is a no-op — the line,
// the TLB entry and the PC's prefetcher entry are already most recent and the
// line already in the state the first access left it — and a dense op steps
// over the repeats block by block instead of producing them. The elision
// never looks across calls: a consumer that interleaves several programs, or
// does anything else between two calls, sees each call's first access.
func (p *Program) Warm(n uint64, access func(pc uint64, addr mem.Addr, store bool)) {
	p.walk(n, &sink{access: access})
}

// sink is what a walk reports to: nothing (Skip), byte spans (SkipTouch), or
// accesses (Warm). touch and access are never both set.
type sink struct {
	touch  Touch
	access func(pc uint64, addr mem.Addr, store bool)

	// The access reported last in this walk (Warm's elision rule).
	lastPC    uint64
	lastBlock mem.Block
	lastStore bool
	reported  bool
}

// one reports one access unless it repeats the one before it.
func (s *sink) one(pc uint64, a mem.Addr, store bool) {
	b := mem.BlockOf(a)
	if s.reported && s.lastBlock == b && s.lastPC == pc && s.lastStore == store {
		return
	}
	s.lastPC, s.lastBlock, s.lastStore, s.reported = pc, b, store, true
	s.access(pc, a, store)
}

// run reports n accesses from one PC, stride bytes apart from a on: the first
// in each block, stepping over the ones behind it that stay in that block.
func (s *sink) run(pc uint64, a mem.Addr, stride, n uint64, store bool) {
	for n > 0 {
		s.one(pc, a, store)
		k := uint64(1)
		if stride < mem.BlockSize {
			if stride == 0 {
				return
			}
			k = min(n, (mem.BlockSize-mem.BlockOffset(a)+stride-1)/stride)
		}
		a += mem.Addr(k * stride)
		n -= k
	}
}

// word reports the 8-byte access of an RNG-addressed op to whichever consumer
// is attached.
func (s *sink) word(pc uint64, a mem.Addr, store bool) {
	if s.access != nil {
		s.one(pc, a, store)
	} else if s.touch != nil {
		s.touch(a, 8, store)
	}
}

// record reports one replayed instruction to whichever consumer is attached.
func (s *sink) record(in *Inst) {
	switch {
	case !in.Kind.IsMem():
	case s.access != nil:
		s.one(in.PC, in.Addr, in.Kind == KindStore)
	case s.touch != nil:
		s.touch(in.Addr, uint64(in.Size), in.Kind == KindStore)
	}
}

// walk advances the stream by exactly n instructions without materializing
// them, reporting to s what they touch: Next's loop with a budget.
func (p *Program) walk(n uint64, s *sink) {
	for n > 0 {
		k := uint64(0)
		switch {
		case p.active:
			k = p.walkLeaf(n, s)
		case p.takeLeft > 0:
			k = min(n, p.takeLeft)
			p.subs[p.phase.sub].walk(k, s)
			p.takeLeft -= k
		}
		if k == 0 {
			p.advance()
		}
		n -= k
	}
}

// walkDense consumes up to budget micro-ops of the current dense activation
// and returns how many that was: in constant time when nothing is reported, a
// span per slot for a footprint, block by block for a Warm consumer.
func (p *Program) walkDense(budget uint64, s *sink) uint64 {
	l := p.leaf
	period := uint64(l.period)
	from := uint64(p.i)*period + uint64(p.step)
	n := min(budget, uint64(l.elems)*period-from)
	to := from + n
	switch {
	case s.access == nil && s.touch == nil:
	case s.access != nil && period > 1:
		// Neighbouring micro-ops differ in PC, so none repeats the access
		// before it and every one is reported, in program order.
		for k, e, j := n, uint64(p.i), p.step; k > 0; k-- {
			if sl := &l.slots[j]; sl.Kind.IsMem() {
				s.one(sl.PC, p.base[sl.reg]+mem.Addr(e*l.adv), sl.Kind == KindStore)
			}
			if j++; j == l.period {
				j, e = 0, e+1
			}
		}
	default:
		for j := range l.slots[:l.period] {
			// Slot j is micro-op j, j+period, …: `first` of those lie before
			// from, so the slot's next element is first, and cnt lie in
			// [from, to).
			sl := &l.slots[j]
			first := (from + period - 1 - uint64(j)) / period
			cnt := (to+period-1-uint64(j))/period - first
			if cnt == 0 || !sl.Kind.IsMem() {
				continue
			}
			a, size, store := p.base[sl.reg]+mem.Addr(first*l.adv), uint64(sl.Size), sl.Kind == KindStore
			switch {
			case s.access != nil:
				s.run(sl.PC, a, l.adv, cnt, store)
			case l.adv <= mem.BlockSize:
				s.touch(a, (cnt-1)*l.adv+size, store)
			default:
				for ; cnt > 0; cnt, a = cnt-1, a+mem.Addr(l.adv) {
					s.touch(a, size, store)
				}
			}
		}
	}
	p.i, p.step = int(to/period), int(to%period)
	return n
}

// walkLeaf consumes up to budget instructions from the current activation and
// returns how many it took; none means the activation has run dry. Each case
// advances the exact state (and RNG draws) the corresponding emit case would.
func (p *Program) walkLeaf(budget uint64, s *sink) (taken uint64) {
	l := p.leaf
	if l.period > 0 {
		return p.walkDense(budget, s)
	}
	rng := &p.rng
	switch l.Op {
	case OpPointerChase, OpScatterStores:
		taken = min(budget, uint64(l.Count-p.i))
		for k := uint64(0); k < taken; k++ {
			s.word(l.PC, p.regs[l.dst].RandomAddr(rng, 8, 8), l.Op == OpScatterStores)
		}
		p.i += int(taken)
		return taken

	case OpCompute:
		o := &l.Compute
		taken = min(budget, uint64(o.Count-p.i))
		// Draws whose outcome does not steer control flow or program state
		// (misprediction, FP class, latency class, dependence distance) are
		// replayed with Advance: same state evolution, no value computed.
		for k := uint64(0); k < taken; k++ {
			p.i++
			if rng.below(l.brBelow) {
				p.branches++
				rng.Advance()
				continue
			}
			rng.Advance()
			if !rng.below(l.divBelow) {
				rng.Advance()
			}
			if rng.below(l.depBelow) {
				rng.Advance()
			}
		}
		return taken

	case OpLoadUse:
		taken = min(budget, 2*uint64(l.Count-p.i)-uint64(p.step))
		for k := uint64(0); k < taken; k++ {
			if p.step == 0 {
				s.word(l.PC, p.regs[l.dst].RandomAddr(rng, 8, 8), false)
				p.step = 1
			} else {
				rng.Advance() // direction draw
				rng.Advance() // misprediction draw
				p.i++
				p.step = 0
			}
		}
		return taken

	case OpReplay:
		taken = min(budget, uint64(len(l.Records)-p.i))
		if s.access != nil || s.touch != nil {
			for k := range l.Records[p.i:][:taken] {
				s.record(&l.Records[p.i+k])
			}
		}
		p.i += int(taken)
		return taken
	}
	panic("trace: unknown program op")
}

// emit produces the current activation's next instruction, or reports false
// when the activation is exhausted. A dense op emits its template's micro-ops
// in turn; each other case follows its Op's definition statement for
// statement — in particular every RNG call, in order.
func (p *Program) emit(out *Inst) bool {
	l := p.leaf
	if l.period > 0 {
		if p.i >= l.elems {
			return false
		}
		sl := &l.slots[p.step]
		*out = sl.Inst
		if sl.Kind.IsMem() {
			out.Addr = p.base[sl.reg] + mem.Addr(uint64(p.i)*l.adv)
		}
		if p.step++; p.step == l.period {
			p.step, p.i = 0, p.i+1
		}
		return true
	}
	rng := &p.rng
	switch l.Op {
	case OpPointerChase:
		if p.i >= l.Count {
			return false
		}
		dep := uint8(0)
		if p.i > 0 {
			dep = 1
		}
		*out = Inst{Kind: KindLoad, Addr: p.regs[l.dst].RandomAddr(rng, 8, 8), Size: 8, Dep1: dep, PC: l.PC}
		p.i++
		return true

	case OpScatterStores:
		if p.i >= l.Count {
			return false
		}
		*out = Inst{Kind: KindStore, Addr: p.regs[l.dst].RandomAddr(rng, 8, 8), Size: 8, PC: l.PC}
		p.i++
		return true

	case OpCompute:
		o := &l.Compute
		if p.i >= o.Count {
			return false
		}
		p.i++
		*out = Inst{PC: o.PC + uint64(p.i%64)*4}
		if rng.below(l.brBelow) {
			out.Kind = KindBranch
			out.Dep1 = 1
			p.branches++
			out.Taken = p.branches%8 != 0
			out.Mispredicted = rng.below(l.missBelow)
			return true
		}
		kind := KindIntALU
		fp := rng.below(l.fpBelow)
		switch {
		case rng.below(l.divBelow):
			kind = KindIntDiv
			if fp {
				kind = KindFPDiv
			}
		case rng.below(l.mulBelow):
			kind = KindIntMul
			if fp {
				kind = KindFPMul
			}
		case fp:
			kind = KindFPALU
		}
		out.Kind = kind
		if rng.below(l.depBelow) {
			out.Dep1 = uint8(1 + rng.Intn(4))
		}
		return true

	case OpLoadUse:
		if p.i >= l.Count {
			return false
		}
		if p.step == 0 {
			*out = Inst{Kind: KindLoad, Addr: p.regs[l.dst].RandomAddr(rng, 8, 8), Size: 8, PC: l.PC}
			p.step = 1
		} else {
			*out = Inst{
				Kind: KindBranch, Dep1: 1, PC: l.PC + 4,
				Taken:        rng.Bool(0.85),
				Mispredicted: rng.Bool(l.MissRate),
			}
			p.i++
			p.step = 0
		}
		return true

	case OpReplay:
		if p.i >= len(l.Records) {
			return false
		}
		*out = l.Records[p.i]
		p.i++
		return true
	}
	panic("trace: unknown program op")
}
