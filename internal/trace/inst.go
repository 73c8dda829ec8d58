// Package trace defines the instruction stream that drives the simulator:
// the instruction record itself, the Reader interface produced by workload
// generators and consumed by the CPU model, a deterministic RNG, the trace
// file format, and Program, the one way a stream is written: weighted phases
// of leaves (memcpy/memset bursts, strided accesses, pointer chases, compute
// blocks, recorded traces) from which the SPEC- and PARSEC-like workloads are
// assembled and a recorded trace is replayed.
package trace

import "spb/internal/mem"

// Kind is the class of an instruction; it determines the functional unit,
// the execution latency and, for memory operations, how the instruction
// interacts with the load queue, the store buffer and the caches.
type Kind uint8

const (
	// KindIntALU is a one-cycle integer operation.
	KindIntALU Kind = iota
	// KindIntMul is an integer multiply.
	KindIntMul
	// KindIntDiv is an integer divide.
	KindIntDiv
	// KindFPALU is a floating-point add/sub.
	KindFPALU
	// KindFPMul is a floating-point multiply.
	KindFPMul
	// KindFPDiv is a floating-point divide.
	KindFPDiv
	// KindLoad reads Size bytes from Addr.
	KindLoad
	// KindStore writes Size bytes to Addr; it allocates a store-queue
	// entry at dispatch and drains through the store buffer after commit.
	KindStore
	// KindBranch is a conditional branch; Mispredicted branches squash the
	// wrong-path fetch stream when they resolve.
	KindBranch
	numKinds
)

// NumKinds is the number of distinct instruction kinds.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case KindIntALU:
		return "ialu"
	case KindIntMul:
		return "imul"
	case KindIntDiv:
		return "idiv"
	case KindFPALU:
		return "fadd"
	case KindFPMul:
		return "fmul"
	case KindFPDiv:
		return "fdiv"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	}
	return "?"
}

// IsMem reports whether the kind is a load or a store.
func (k Kind) IsMem() bool { return k == KindLoad || k == KindStore }

// Inst is one dynamic instruction of the trace.
type Inst struct {
	Kind Kind
	// Size is the access size in bytes for loads and stores (1..64).
	Size uint8
	// Dep1 and Dep2 are register-dependence distances: the instruction
	// depends on the results of the instructions Dep1 and Dep2 positions
	// earlier in program order (0 means no dependence). They bound how
	// early the instruction can issue.
	Dep1, Dep2 uint8
	// Taken is the branch's actual direction. The core does not read it;
	// streams and trace files carry it so a recorded trace keeps the whole
	// instruction.
	Taken bool
	// Mispredicted marks a branch the front end predicts wrongly; the
	// pipeline squashes wrong-path fetch when it resolves.
	Mispredicted bool
	// Addr is the effective address for loads and stores.
	Addr mem.Addr
	// PC identifies the static instruction; its region (application,
	// C library, kernel) is used by the Fig. 3 stall-attribution study.
	PC uint64
}

// Reader produces a stream of instructions. Next fills *Inst and reports
// whether an instruction was produced; generators may be finite or infinite
// (the simulator stops after a configured instruction count either way).
type Reader interface {
	Next(*Inst) bool
}

// PC regions used to label static instructions the way the paper attributes
// SB stalls (Fig. 3): application code, C library (memcpy/memset/calloc) and
// kernel (clear_page_orig).
const (
	PCApp    uint64 = 0x0000_0000_0040_0000
	PCLib    uint64 = 0x0000_7F00_0000_0000
	PCKernel uint64 = 0xFFFF_FFFF_8000_0000
)

// Region names a PC's code region.
type Region uint8

const (
	// RegionApp is application text.
	RegionApp Region = iota
	// RegionLib is C-library text (memcpy, memset, calloc).
	RegionLib
	// RegionKernel is kernel text (clear_page).
	RegionKernel
)

func (r Region) String() string {
	switch r {
	case RegionApp:
		return "app"
	case RegionLib:
		return "lib"
	case RegionKernel:
		return "kernel"
	}
	return "?"
}

// RegionOf classifies a PC into its code region.
func RegionOf(pc uint64) Region {
	switch {
	case pc >= PCKernel:
		return RegionKernel
	case pc >= PCLib:
		return RegionLib
	default:
		return RegionApp
	}
}

// SliceReader replays a fixed slice of instructions. It is mainly used by
// unit tests and the Fig. 4 running example.
type SliceReader struct {
	insts []Inst
	pos   int
}

// NewSliceReader returns a Reader over the given instructions.
func NewSliceReader(insts []Inst) *SliceReader {
	return &SliceReader{insts: insts}
}

// Next implements Reader.
func (r *SliceReader) Next(out *Inst) bool {
	if r.pos >= len(r.insts) {
		return false
	}
	*out = r.insts[r.pos]
	r.pos++
	return true
}

// Collect drains up to max instructions from r into a slice.
func Collect(r Reader, max int) []Inst {
	var out []Inst
	var in Inst
	for len(out) < max && r.Next(&in) {
		out = append(out, in)
	}
	return out
}
