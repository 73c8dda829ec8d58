package trace

import "spb/internal/mem"

// FuncReader adapts a closure to the Reader interface.
type FuncReader func(*Inst) bool

// Next implements Reader.
func (f FuncReader) Next(i *Inst) bool { return f(i) }

// Factory creates a fresh Reader each time it is invoked, so fragments can
// be repeated or mixed without sharing iteration state.
type Factory func() Reader

// Seq returns a factory that runs each fragment to completion in order.
func Seq(fragments ...Factory) Factory {
	return func() Reader {
		var cur Reader
		idx := 0
		return FuncReader(func(out *Inst) bool {
			for {
				if cur == nil {
					if idx >= len(fragments) {
						return false
					}
					cur = fragments[idx]()
					idx++
				}
				if cur.Next(out) {
					return true
				}
				cur = nil
			}
		})
	}
}

// Repeat returns a factory that runs the fragment n times back to back.
func Repeat(n int, f Factory) Factory {
	return func() Reader {
		var cur Reader
		left := n
		return FuncReader(func(out *Inst) bool {
			for {
				if cur == nil {
					if left <= 0 {
						return false
					}
					cur = f()
					left--
				}
				if cur.Next(out) {
					return true
				}
				cur = nil
			}
		})
	}
}

// Forever returns a factory that restarts the fragment indefinitely. The
// simulator bounds execution by instruction count, so workload generators
// are typically Forever(Mix(...)).
func Forever(f Factory) Factory {
	return func() Reader {
		var cur Reader
		return FuncReader(func(out *Inst) bool {
			for {
				if cur == nil {
					cur = f()
				}
				if cur.Next(out) {
					return true
				}
				cur = nil
			}
		})
	}
}

// LimitReader produces at most a fixed number of instructions from an
// underlying reader. It is a concrete type (not a closure) because the
// simulator wraps every core's stream in one, making its Next the hot entry
// point of trace generation.
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

// Weighted pairs a fragment with a selection weight for Mix.
type Weighted struct {
	Weight   int
	Fragment Factory
}

// Mix returns a factory that, each activation, repeatedly picks one fragment
// at random (by weight) and runs it to completion before picking the next —
// modelling the phase behaviour of real applications (a memcpy call, then
// compute, then another call) rather than instruction-level shuffling, which
// would destroy the store-burst patterns the paper studies. One activation
// of the mix runs `phases` fragments.
func Mix(rng *RNG, phases int, parts ...Weighted) Factory {
	total := 0
	for _, p := range parts {
		if p.Weight < 0 {
			panic("trace: negative Mix weight")
		}
		total += p.Weight
	}
	if total == 0 {
		panic("trace: Mix with zero total weight")
	}
	pick := func() Factory {
		n := rng.Intn(total)
		for _, p := range parts {
			if n < p.Weight {
				return p.Fragment
			}
			n -= p.Weight
		}
		return parts[len(parts)-1].Fragment
	}
	return func() Reader {
		var cur Reader
		left := phases
		return FuncReader(func(out *Inst) bool {
			for {
				if cur == nil {
					if left <= 0 {
						return false
					}
					cur = pick()()
					left--
				}
				if cur.Next(out) {
					return true
				}
				cur = nil
			}
		})
	}
}

// MemRegion is a contiguous address range a workload streams or scatters
// accesses through. Streaming fragments advance cur and wrap; the wrap-around
// working set determines which cache level the stream misses to.
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

// MemsetBurst emits a memset-like run of contiguous stores of storeSize
// bytes covering `bytes` bytes of dst — stores only, no loop branch: the
// paper's Fig. 2 pattern as the store buffer sees it (the compiled OpMemset
// matches it instruction for instruction). pc labels the static store for the
// Fig. 3 region attribution.
func MemsetBurst(dst *MemRegion, bytes uint64, storeSize int, pc uint64) Factory {
	return func() Reader {
		base := dst.NextChunk(bytes)
		var off uint64
		return FuncReader(func(out *Inst) bool {
			if off >= bytes {
				return false
			}
			*out = Inst{
				Kind: KindStore,
				Addr: base + mem.Addr(off),
				Size: uint8(storeSize),
				PC:   pc,
			}
			off += uint64(storeSize)
			return true
		})
	}
}

// MemcpyBurst emits a memcpy-like run: for every 8 bytes a load from src and
// a dependent store to dst, streaming through both regions.
func MemcpyBurst(src, dst *MemRegion, bytes uint64, pc uint64) Factory {
	const step = 8
	return func() Reader {
		s := src.NextChunk(bytes)
		d := dst.NextChunk(bytes)
		var off uint64
		loadNext := true
		return FuncReader(func(out *Inst) bool {
			if off >= bytes {
				return false
			}
			if loadNext {
				*out = Inst{Kind: KindLoad, Addr: s + mem.Addr(off), Size: step, PC: pc}
			} else {
				// The store writes the value the immediately preceding
				// load produced.
				*out = Inst{Kind: KindStore, Addr: d + mem.Addr(off), Size: step, Dep1: 1, PC: pc + 4}
				off += step
			}
			loadNext = !loadNext
			return true
		})
	}
}

// ClearPage emits the kernel clear_page pattern: one full page of 8-byte
// stores with a kernel PC. The OS runs it on every page handed to user code.
func ClearPage(dst *MemRegion) Factory {
	return MemsetBurst(dst, mem.PageSize, 8, PCKernel+0x100)
}

// RMWBurst emits a read-modify-write stream: load a[i], one ALU op on it,
// store a[i], walking the region sequentially. Because the loads run ahead
// of the stores' commit, only a predictive prefetcher (SPB) can turn the
// loads into hits — the source of the paper's above-ideal results.
func RMWBurst(buf *MemRegion, bytes uint64, pc uint64) Factory {
	const step = 8
	return func() Reader {
		base := buf.NextChunk(bytes)
		var off uint64
		state := 0
		return FuncReader(func(out *Inst) bool {
			if off >= bytes {
				return false
			}
			switch state {
			case 0:
				*out = Inst{Kind: KindLoad, Addr: base + mem.Addr(off), Size: step, PC: pc}
			case 1:
				*out = Inst{Kind: KindIntALU, Dep1: 1, PC: pc + 4}
			default:
				*out = Inst{Kind: KindStore, Addr: base + mem.Addr(off), Size: step, Dep1: 1, PC: pc + 8}
				off += step
			}
			state = (state + 1) % 3
			return true
		})
	}
}

// StridedStores emits count stores of size bytes separated by stride bytes.
// With stride > 64 the SPB detector must not trigger (non-contiguous
// blocks); with stride <= 8 it models dense initialization.
func StridedStores(buf *MemRegion, count int, stride uint64, size int, pc uint64) Factory {
	return func() Reader {
		base := buf.NextChunk(uint64(count) * stride)
		i := 0
		return FuncReader(func(out *Inst) bool {
			if i >= count {
				return false
			}
			*out = Inst{Kind: KindStore, Addr: base + mem.Addr(uint64(i)*stride), Size: uint8(size), PC: pc}
			i++
			return true
		})
	}
}

// StridedLoads emits count loads separated by stride bytes, the classic
// pattern the generic stream prefetcher covers well.
func StridedLoads(buf *MemRegion, count int, stride uint64, pc uint64) Factory {
	return func() Reader {
		base := buf.NextChunk(uint64(count) * stride)
		i := 0
		return FuncReader(func(out *Inst) bool {
			if i >= count {
				return false
			}
			*out = Inst{Kind: KindLoad, Addr: base + mem.Addr(uint64(i)*stride), Size: 8, PC: pc}
			i++
			return true
		})
	}
}

// PointerChase emits count dependent loads at pseudo-random addresses in the
// region: each load's address depends on the previous load's value, so they
// serialize — the memory-latency-bound pattern prefetchers cannot help.
func PointerChase(rng *RNG, buf *MemRegion, count int, pc uint64) Factory {
	return func() Reader {
		i := 0
		return FuncReader(func(out *Inst) bool {
			if i >= count {
				return false
			}
			dep := uint8(0)
			if i > 0 {
				dep = 1
			}
			*out = Inst{
				Kind: KindLoad,
				Addr: buf.RandomAddr(rng, 8, 8),
				Size: 8,
				Dep1: dep,
				PC:   pc,
			}
			i++
			return true
		})
	}
}

// ScatterStores emits count stores at pseudo-random block-aligned addresses:
// sparse store traffic that fills the SB without any contiguous pattern.
func ScatterStores(rng *RNG, buf *MemRegion, count int, pc uint64) Factory {
	return func() Reader {
		i := 0
		return FuncReader(func(out *Inst) bool {
			if i >= count {
				return false
			}
			*out = Inst{
				Kind: KindStore,
				Addr: buf.RandomAddr(rng, 8, 8),
				Size: 8,
				PC:   pc,
			}
			i++
			return true
		})
	}
}

// ComputeOptions shapes a Compute fragment.
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

// Compute emits an arithmetic/branch block according to opts.
func Compute(rng *RNG, opts ComputeOptions) Factory {
	return func() Reader {
		i := 0
		branches := 0
		return FuncReader(func(out *Inst) bool {
			if i >= opts.Count {
				return false
			}
			i++
			*out = Inst{PC: opts.PC + uint64(i%64)*4}
			if rng.Bool(opts.BrFrac) {
				out.Kind = KindBranch
				out.Dep1 = 1
				// Loop-patterned directions (taken 7 of 8 times, like a
				// short inner loop): a structural predictor learns them,
				// while the statistical flag drives the default front end.
				branches++
				out.Taken = branches%8 != 0
				out.Mispredicted = rng.Bool(opts.MissRate)
				return true
			}
			kind := KindIntALU
			fp := rng.Bool(opts.FPFrac)
			switch {
			case rng.Bool(opts.DivFrac):
				kind = KindIntDiv
				if fp {
					kind = KindFPDiv
				}
			case rng.Bool(opts.MulFrac):
				kind = KindIntMul
				if fp {
					kind = KindFPMul
				}
			case fp:
				kind = KindFPALU
			}
			out.Kind = kind
			if rng.Bool(opts.DepFrac) {
				out.Dep1 = uint8(1 + rng.Intn(4))
			}
			return true
		})
	}
}

// LoadUse emits a load followed by a dependent branch, the pattern through
// which faster loads resolve branches earlier and cut wrong-path work
// (the §VI.A super-linear-speedup mechanism).
func LoadUse(rng *RNG, buf *MemRegion, count int, missRate float64, pc uint64) Factory {
	return func() Reader {
		i := 0
		loadNext := true
		return FuncReader(func(out *Inst) bool {
			if i >= count {
				return false
			}
			if loadNext {
				*out = Inst{Kind: KindLoad, Addr: buf.RandomAddr(rng, 8, 8), Size: 8, PC: pc}
			} else {
				*out = Inst{
					Kind: KindBranch, Dep1: 1, PC: pc + 4,
					// Data-dependent but biased direction, as real
					// value-dependent branches tend to be.
					Taken:        rng.Bool(0.85),
					Mispredicted: rng.Bool(missRate),
				}
				i++
			}
			loadNext = !loadNext
			return true
		})
	}
}
