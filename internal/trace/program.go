package trace

import "spb/internal/mem"

// This file implements the compiled form of a workload generator. The
// closure combinators in synth.go (Seq, Mix, Forever, the fragment builders)
// are convenient to compose but cost three or four nested closure calls per
// instruction on the simulator's hottest path. A Program flattens one
// Forever(Mix(...)) phase loop into a table of Phase descriptors, each a
// sequence of Leaf records, stepped by a single switch — no interface
// dispatch, no per-phase allocation — while calling the shared RNG and the
// MemRegion chunk allocator in exactly the order the closures do, so the
// generated instruction stream is bit-identical.
//
// The equivalence relies on a property of the closure tree workloads build:
// Mix picks fragments lazily (one rng.Intn per phase, immediately before the
// phase's first instruction) and re-activating Mix under Forever has no side
// effects, so Forever(Mix(phases, parts...)) reduces to an unbounded
// pick-a-phase / run-it-to-completion loop.

// Op identifies the generator a Leaf runs; each corresponds to one of the
// fragment builders in synth.go.
type Op uint8

const (
	// OpMemset emits Bytes/Size contiguous stores of Size bytes (MemsetBurst).
	OpMemset Op = iota
	// OpMemcpy emits a load/dependent-store pair per 8 bytes (MemcpyBurst).
	OpMemcpy
	// OpRMW emits load / ALU / dependent-store triples (RMWBurst).
	OpRMW
	// OpStridedStores emits Count stores Stride bytes apart (StridedStores).
	OpStridedStores
	// OpStridedLoads emits Count loads Stride bytes apart (StridedLoads).
	OpStridedLoads
	// OpPointerChase emits Count serially dependent random loads (PointerChase).
	OpPointerChase
	// OpScatterStores emits Count random stores (ScatterStores).
	OpScatterStores
	// OpCompute emits an arithmetic/branch block (Compute).
	OpCompute
	// OpLoadUse emits load + dependent-branch pairs (LoadUse).
	OpLoadUse
)

// Leaf is one compiled fragment. Which fields matter depends on Op, matching
// the corresponding builder's parameters in synth.go.
type Leaf struct {
	Op  Op
	Dst *MemRegion // region streamed/scattered through (builders' buf/dst)
	Src *MemRegion // OpMemcpy source

	Bytes  uint64 // burst size (OpMemset/OpMemcpy/OpRMW)
	Count  int    // element count (strided/chase/scatter/load-use)
	Stride uint64 // byte distance between strided elements
	Size   int    // store size for OpMemset/OpStridedStores

	PC       uint64
	MissRate float64        // OpLoadUse branch misprediction probability
	Compute  ComputeOptions // OpCompute parameters

	// Repeat runs the leaf that many consecutive activations (each with a
	// fresh NextChunk), like Repeat(n, fragment); 0 means once.
	Repeat int

	// OpCompute's BrFrac, DivFrac and DepFrac as RNG.below thresholds, set by
	// NewProgram: the draws a walk reads, once per skipped instruction.
	brBelow, divBelow, depBelow uint64
}

// Phase is one weighted alternative of a Program's pick loop: either a
// sequence of Leaves run in order to completion, or Take instructions drawn
// from a persistent sub-program (the PARSEC private-stream case).
type Phase struct {
	Weight int
	Leaves []Leaf

	Sub  *Program
	Take uint64
}

// Program is a compiled workload generator: an endless weighted-phase loop
// equivalent to Forever(Mix(rng, ·, parts...)) over the same fragments.
// It implements Reader.
type Program struct {
	rng    *RNG
	phases []Phase
	total  int

	// Current phase.
	phase    *Phase
	leafIdx  int
	takeLeft uint64

	// Current leaf activation.
	leaf     *Leaf
	active   bool
	reps     int
	base     mem.Addr // current chunk base (dst side)
	srcBase  mem.Addr // current chunk base of the memcpy source
	off      uint64
	i        int
	step     int
	branches int
}

// NewProgram builds a program over the given phases, whose leaves it completes
// in place (the draw thresholds a walk reads). Weights follow Mix's rules:
// negative weights and an all-zero total panic.
func NewProgram(rng *RNG, phases ...Phase) *Program {
	total := 0
	for i := range phases {
		if phases[i].Weight < 0 {
			panic("trace: negative Program phase weight")
		}
		total += phases[i].Weight
		for j := range phases[i].Leaves {
			l := &phases[i].Leaves[j]
			l.brBelow, l.divBelow, l.depBelow = threshold(l.Compute.BrFrac), threshold(l.Compute.DivFrac), threshold(l.Compute.DepFrac)
		}
	}
	if total == 0 {
		panic("trace: Program with zero total weight")
	}
	return &Program{rng: rng, phases: phases, total: total}
}

// pick selects the next phase by weight, consuming one rng.Intn exactly as
// Mix's pick does, and resets the phase cursor.
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
	ph := &p.phases[idx]
	p.phase = ph
	p.leafIdx = 0
	p.active = false
	p.takeLeft = ph.Take
}

// activate starts one activation of the current leaf, drawing its region
// chunks in the same order the closure builders do (memcpy: src then dst).
func (p *Program) activate() {
	l := p.leaf
	p.off, p.i, p.step, p.branches = 0, 0, 0, 0
	switch l.Op {
	case OpMemset, OpRMW:
		p.base = l.Dst.NextChunk(l.Bytes)
	case OpMemcpy:
		p.srcBase = l.Src.NextChunk(l.Bytes)
		p.base = l.Dst.NextChunk(l.Bytes)
	case OpStridedStores, OpStridedLoads:
		p.base = l.Dst.NextChunk(uint64(l.Count) * l.Stride)
	}
}

// Next implements Reader.
func (p *Program) Next(out *Inst) bool {
	for {
		if p.phase == nil {
			p.pick()
		}
		ph := p.phase
		if ph.Sub != nil {
			if p.takeLeft > 0 {
				p.takeLeft--
				if ph.Sub.Next(out) {
					return true
				}
			}
			p.phase = nil
			continue
		}
		if p.active {
			if p.emit(out) {
				return true
			}
			// Activation exhausted: repeat the leaf or advance the sequence.
			p.reps--
			if p.reps > 0 {
				p.activate()
				continue
			}
			p.active = false
			p.leafIdx++
		}
		if p.leafIdx >= len(ph.Leaves) {
			p.phase = nil
			continue
		}
		p.leaf = &ph.Leaves[p.leafIdx]
		p.reps = p.leaf.Repeat
		if p.reps < 1 {
			p.reps = 1
		}
		p.activate()
		p.active = true
	}
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
// state — caches, TLB, prefetcher tables, a branch predictor: the program
// advances exactly as n Next calls would, and access receives every load and
// store of those n instructions in program order, with its PC, without an
// Inst being built. branch receives every branch with its direction; pass nil
// when no predictor is modelled and the direction draws are replayed unread.
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
func (p *Program) Warm(n uint64, access func(pc uint64, addr mem.Addr, store bool), branch func(pc uint64, taken bool)) {
	p.walk(n, &sink{access: access, branch: branch})
}

// sink is what a walk reports to: nothing (Skip), byte spans (SkipTouch), or
// accesses and branches (Warm). touch and access are never both set.
type sink struct {
	touch  Touch
	access func(pc uint64, addr mem.Addr, store bool)
	branch func(pc uint64, taken bool)

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

// walk advances the stream by exactly n instructions without materializing
// them, reporting to s what they touch. It is the one stepping loop behind
// Skip, SkipTouch and Warm; Next keeps its own, a direct switch on the
// detailed path.
func (p *Program) walk(n uint64, s *sink) {
	for n > 0 {
		if p.phase == nil {
			p.pick()
		}
		ph := p.phase
		if ph.Sub != nil {
			if p.takeLeft > 0 {
				k := min(n, p.takeLeft)
				ph.Sub.walk(k, s)
				p.takeLeft -= k
				n -= k
				continue
			}
			p.phase = nil
			continue
		}
		if p.active {
			taken, exhausted := p.walkLeaf(n, s)
			n -= taken
			if !exhausted {
				continue // budget ran out mid-activation (n is now 0)
			}
			p.reps--
			if p.reps > 0 {
				p.activate()
				continue
			}
			p.active = false
			p.leafIdx++
		}
		if p.leafIdx >= len(ph.Leaves) {
			p.phase = nil
			continue
		}
		p.leaf = &ph.Leaves[p.leafIdx]
		p.reps = p.leaf.Repeat
		if p.reps < 1 {
			p.reps = 1
		}
		p.activate()
		p.active = true
	}
}

// walkLeaf consumes up to budget instructions from the current activation,
// returning how many it took and whether that exhausted the activation. Each
// case advances the exact state (and RNG draws) the corresponding emit case
// would; the dense ops do it in constant time when nothing or only spans are
// reported, and block by block for a Warm consumer.
func (p *Program) walkLeaf(budget uint64, s *sink) (taken uint64, exhausted bool) {
	l := p.leaf
	clamp := func(remaining uint64) uint64 {
		if remaining <= budget {
			return remaining
		}
		return budget
	}
	switch l.Op {
	case OpMemset:
		sz := uint64(l.Size)
		remaining := (l.Bytes - min(p.off, l.Bytes) + sz - 1) / sz
		taken = clamp(remaining)
		if taken > 0 {
			a := p.base + mem.Addr(p.off)
			if s.access != nil {
				s.run(l.PC, a, sz, taken, true)
			} else if s.touch != nil {
				s.touch(a, taken*sz, true)
			}
		}
		p.off += taken * sz
		return taken, taken == remaining

	case OpMemcpy:
		remaining := 2*((l.Bytes-min(p.off, l.Bytes)+7)/8) - uint64(p.step)
		taken = clamp(remaining)
		if s.access != nil {
			// The load and the store of a pair differ in PC and, unless source
			// and destination share a block, in block: every access is reported.
			for k, off, step := uint64(0), p.off, p.step; k < taken; k++ {
				if step == 0 {
					s.one(l.PC, p.srcBase+mem.Addr(off), false)
					step = 1
				} else {
					s.one(l.PC+4, p.base+mem.Addr(off), true)
					off += 8
					step = 0
				}
			}
		} else if s.touch != nil && taken > 0 {
			// Micro-steps alternate load/store; with step 1 the pending
			// store at the current offset comes first and the next load is
			// one element on.
			nLoads := (taken + uint64(1-p.step)) / 2
			if nLoads > 0 {
				s.touch(p.srcBase+mem.Addr(p.off+8*uint64(p.step)), 8*nLoads, false)
			}
			if nStores := taken - nLoads; nStores > 0 {
				s.touch(p.base+mem.Addr(p.off), 8*nStores, true)
			}
		}
		n := uint64(p.step) + taken
		p.off += 8 * (n / 2)
		p.step = int(n % 2)
		return taken, taken == remaining

	case OpRMW:
		remaining := 3*((l.Bytes-min(p.off, l.Bytes)+7)/8) - uint64(p.step)
		taken = clamp(remaining)
		if s.access != nil {
			for k, off, step := uint64(0), p.off, p.step; k < taken; k++ {
				switch step {
				case 0:
					s.one(l.PC, p.base+mem.Addr(off), false)
				case 2:
					s.one(l.PC+8, p.base+mem.Addr(off), true)
					off += 8
				}
				step = (step + 1) % 3
			}
		} else if s.touch != nil && taken > 0 {
			// Triples step load/ALU/store at one offset, then advance; a
			// mid-triple entry owes its load already, so the next load sits
			// one element on while the store still lands at the current
			// offset.
			count := func(first uint64) uint64 {
				if taken <= first {
					return 0
				}
				return (taken - first + 2) / 3
			}
			nLoads := count((3 - uint64(p.step)) % 3)
			loadOff := p.off
			if p.step != 0 {
				loadOff += 8
			}
			if nLoads > 0 {
				s.touch(p.base+mem.Addr(loadOff), 8*nLoads, false)
			}
			if nStores := count((2 - uint64(p.step) + 3) % 3); nStores > 0 {
				s.touch(p.base+mem.Addr(p.off), 8*nStores, true)
			}
		}
		n := uint64(p.step) + taken
		p.off += 8 * (n / 3)
		p.step = int(n % 3)
		return taken, taken == remaining

	case OpStridedStores, OpStridedLoads:
		remaining := uint64(l.Count - p.i)
		taken = clamp(remaining)
		if taken > 0 {
			store := l.Op == OpStridedStores
			a := p.base + mem.Addr(uint64(p.i)*l.Stride)
			if s.access != nil {
				s.run(l.PC, a, l.Stride, taken, store)
			} else if s.touch != nil {
				sz := uint64(8)
				if store {
					sz = uint64(l.Size)
				}
				if l.Stride <= mem.BlockSize {
					s.touch(a, (taken-1)*l.Stride+sz, store)
				} else {
					for k := uint64(0); k < taken; k++ {
						s.touch(a+mem.Addr(k*l.Stride), sz, store)
					}
				}
			}
		}
		p.i += int(taken)
		return taken, taken == remaining

	case OpPointerChase, OpScatterStores:
		remaining := uint64(l.Count - p.i)
		taken = clamp(remaining)
		store := l.Op == OpScatterStores
		for k := uint64(0); k < taken; k++ {
			a := l.Dst.RandomAddr(p.rng, 8, 8)
			if s.access != nil {
				s.one(l.PC, a, store)
			} else if s.touch != nil {
				s.touch(a, 8, store)
			}
		}
		p.i += int(taken)
		return taken, taken == remaining

	case OpCompute:
		o := &l.Compute
		remaining := uint64(o.Count - p.i)
		taken = clamp(remaining)
		rng, branch := p.rng, s.branch
		// Draws whose outcome does not steer control flow or program state
		// (misprediction, FP class, latency class, dependence distance) are
		// replayed with Advance: same state evolution, no value computed.
		for k := uint64(0); k < taken; k++ {
			p.i++
			if rng.below(l.brBelow) {
				p.branches++
				rng.Advance()
				if branch != nil {
					branch(o.PC+uint64(p.i%64)*4, p.branches%8 != 0)
				}
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
		return taken, taken == remaining

	case OpLoadUse:
		remaining := 2*uint64(l.Count-p.i) - uint64(p.step)
		taken = clamp(remaining)
		rng := p.rng
		for k := uint64(0); k < taken; k++ {
			if p.step == 0 {
				a := l.Dst.RandomAddr(rng, 8, 8)
				if s.access != nil {
					s.one(l.PC, a, false)
				} else if s.touch != nil {
					s.touch(a, 8, false)
				}
				p.step = 1
			} else {
				// The direction draw is read only by a modelled predictor.
				if s.branch != nil {
					s.branch(l.PC+4, rng.Bool(0.85))
				} else {
					rng.Advance()
				}
				rng.Advance() // misprediction draw
				p.i++
				p.step = 0
			}
		}
		return taken, taken == remaining
	}
	panic("trace: unknown program op")
}

// emit produces the current activation's next instruction, or reports false
// when the activation is exhausted. Each case mirrors its synth.go builder
// statement for statement — in particular every RNG call, in order.
func (p *Program) emit(out *Inst) bool {
	l := p.leaf
	switch l.Op {
	case OpMemset:
		if p.off >= l.Bytes {
			return false
		}
		*out = Inst{Kind: KindStore, Addr: p.base + mem.Addr(p.off), Size: uint8(l.Size), PC: l.PC}
		p.off += uint64(l.Size)
		return true

	case OpMemcpy:
		if p.off >= l.Bytes {
			return false
		}
		if p.step == 0 {
			*out = Inst{Kind: KindLoad, Addr: p.srcBase + mem.Addr(p.off), Size: 8, PC: l.PC}
			p.step = 1
		} else {
			*out = Inst{Kind: KindStore, Addr: p.base + mem.Addr(p.off), Size: 8, Dep1: 1, PC: l.PC + 4}
			p.off += 8
			p.step = 0
		}
		return true

	case OpRMW:
		if p.off >= l.Bytes {
			return false
		}
		switch p.step {
		case 0:
			*out = Inst{Kind: KindLoad, Addr: p.base + mem.Addr(p.off), Size: 8, PC: l.PC}
		case 1:
			*out = Inst{Kind: KindIntALU, Dep1: 1, PC: l.PC + 4}
		default:
			*out = Inst{Kind: KindStore, Addr: p.base + mem.Addr(p.off), Size: 8, Dep1: 1, PC: l.PC + 8}
			p.off += 8
		}
		p.step = (p.step + 1) % 3
		return true

	case OpStridedStores:
		if p.i >= l.Count {
			return false
		}
		*out = Inst{Kind: KindStore, Addr: p.base + mem.Addr(uint64(p.i)*l.Stride), Size: uint8(l.Size), PC: l.PC}
		p.i++
		return true

	case OpStridedLoads:
		if p.i >= l.Count {
			return false
		}
		*out = Inst{Kind: KindLoad, Addr: p.base + mem.Addr(uint64(p.i)*l.Stride), Size: 8, PC: l.PC}
		p.i++
		return true

	case OpPointerChase:
		if p.i >= l.Count {
			return false
		}
		dep := uint8(0)
		if p.i > 0 {
			dep = 1
		}
		*out = Inst{Kind: KindLoad, Addr: l.Dst.RandomAddr(p.rng, 8, 8), Size: 8, Dep1: dep, PC: l.PC}
		p.i++
		return true

	case OpScatterStores:
		if p.i >= l.Count {
			return false
		}
		*out = Inst{Kind: KindStore, Addr: l.Dst.RandomAddr(p.rng, 8, 8), Size: 8, PC: l.PC}
		p.i++
		return true

	case OpCompute:
		o := &l.Compute
		if p.i >= o.Count {
			return false
		}
		p.i++
		*out = Inst{PC: o.PC + uint64(p.i%64)*4}
		rng := p.rng
		if rng.Bool(o.BrFrac) {
			out.Kind = KindBranch
			out.Dep1 = 1
			p.branches++
			out.Taken = p.branches%8 != 0
			out.Mispredicted = rng.Bool(o.MissRate)
			return true
		}
		kind := KindIntALU
		fp := rng.Bool(o.FPFrac)
		switch {
		case rng.Bool(o.DivFrac):
			kind = KindIntDiv
			if fp {
				kind = KindFPDiv
			}
		case rng.Bool(o.MulFrac):
			kind = KindIntMul
			if fp {
				kind = KindFPMul
			}
		case fp:
			kind = KindFPALU
		}
		out.Kind = kind
		if rng.Bool(o.DepFrac) {
			out.Dep1 = uint8(1 + rng.Intn(4))
		}
		return true

	case OpLoadUse:
		if p.i >= l.Count {
			return false
		}
		if p.step == 0 {
			*out = Inst{Kind: KindLoad, Addr: l.Dst.RandomAddr(p.rng, 8, 8), Size: 8, PC: l.PC}
			p.step = 1
		} else {
			*out = Inst{
				Kind: KindBranch, Dep1: 1, PC: l.PC + 4,
				Taken:        p.rng.Bool(0.85),
				Mispredicted: p.rng.Bool(l.MissRate),
			}
			p.i++
			p.step = 0
		}
		return true
	}
	panic("trace: unknown program op")
}
