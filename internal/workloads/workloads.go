// Package workloads synthesizes the benchmark suites of the evaluation.
// Real SPEC CPU 2017 and PARSEC binaries cannot run on this simulator (see
// DESIGN.md), so each named workload is a deterministic instruction stream
// whose memory behaviour reproduces the paper's characterization of that
// application: which fraction of time it spends in contiguous store bursts
// (memcpy / memset / clear_page or manual copy loops), where those store PCs
// live (C library, kernel, application), how big its working sets are, and
// how branchy its compute is. The SB-bound set matches the paper's:
// bwaves, cactuBSSN, x264, blender, cam4, deepsjeng, fotonik3d and roms for
// SPEC; bodytrack, dedup, ferret and x264 for PARSEC.
package workloads

import (
	"fmt"
	"slices"
	"sort"

	"spb/internal/mem"
	"spb/internal/trace"
)

// Workload is one single-threaded (SPEC-like) benchmark.
type Workload struct {
	Name string
	// SBBound records the paper's classification (>2% SB-induced stalls at
	// the 56-entry baseline).
	SBBound bool
	profile profile
}

// burstKind selects the store-burst flavour of a workload.
type burstKind int

const (
	burstMemset burstKind = iota
	burstMemcpy
	burstRMW       // load-modify-store over the same stream
	burstClearPage // kernel page zeroing
	burstAppCopy   // manual copy loop with application PCs (deepsjeng, roms)
)

// profile holds the knobs a workload's generator is built from.
type profile struct {
	kind burstKind

	// burstShare is the target fraction of *instructions* spent inside
	// store-burst phases (0 disables bursts). The generator derives phase
	// weights from it, compensating for the very different lengths of a
	// burst phase (thousands of stores) and a compute phase (hundreds of
	// instructions).
	burstShare float64

	// Relative weights of the non-burst phases.
	computeW int
	loadW    int
	scatterW int // sparse store phases (SB pressure without a pattern)

	// burstPages is the number of 4 KiB pages each burst phase covers.
	burstPages int

	// wsBytes sizes the streaming region the bursts walk; beyond the L3 it
	// makes every burst miss to DRAM.
	wsBytes uint64

	// loadWS sizes the random-load working set (locality of the compute).
	loadWS uint64

	// missRate is the branch misprediction probability.
	missRate float64

	// fpFrac shifts the compute mix toward floating point.
	fpFrac float64

	// reuse makes burst phases re-walk recently written data with loads
	// (the RMW/read-back behaviour behind the paper's super-linear SPB
	// results on fotonik3d/roms-like codes).
	reuse bool
}

// specTable lists the SPEC CPU 2017-like suite.
func specTable() []Workload {
	return []Workload{
		// ---- SB-bound applications (paper Fig. 1/3/6/9/15) ----
		{Name: "bwaves", SBBound: true, profile: profile{
			kind: burstMemcpy, burstShare: 0.45, computeW: 4, loadW: 2,
			burstPages: 4, wsBytes: 32 << 10, loadWS: 2 << 20,
			missRate: 0.01, fpFrac: 0.8}},
		{Name: "cactuBSSN", SBBound: true, profile: profile{
			kind: burstRMW, burstShare: 0.12, computeW: 6, loadW: 2,
			burstPages: 4, wsBytes: 32 << 10, loadWS: 4 << 20,
			missRate: 0.01, fpFrac: 0.7, reuse: true}},
		{Name: "x264", SBBound: true, profile: profile{
			kind: burstMemcpy, burstShare: 0.40, computeW: 6, loadW: 3,
			burstPages: 4, wsBytes: 32 << 10, loadWS: 1 << 20,
			missRate: 0.04, fpFrac: 0.1}},
		{Name: "blender", SBBound: true, profile: profile{
			kind: burstMemset, burstShare: 0.12, computeW: 6, loadW: 3,
			burstPages: 4, wsBytes: 32 << 10, loadWS: 8 << 20,
			missRate: 0.03, fpFrac: 0.5}},
		{Name: "cam4", SBBound: true, profile: profile{
			kind: burstClearPage, burstShare: 0.04, computeW: 6, loadW: 3,
			burstPages: 4, wsBytes: 32 << 20, loadWS: 4 << 20,
			missRate: 0.02, fpFrac: 0.6}},
		{Name: "deepsjeng", SBBound: true, profile: profile{
			kind: burstAppCopy, burstShare: 0.12, computeW: 7, loadW: 3,
			burstPages: 3, wsBytes: 24 << 10, loadWS: 2 << 20,
			missRate: 0.08, fpFrac: 0.0}},
		{Name: "fotonik3d", SBBound: true, profile: profile{
			kind: burstRMW, burstShare: 0.08, computeW: 4, loadW: 2,
			burstPages: 4, wsBytes: 48 << 20, loadWS: 8 << 20,
			missRate: 0.01, fpFrac: 0.8, reuse: true}},
		{Name: "roms", SBBound: true, profile: profile{
			kind: burstAppCopy, burstShare: 0.40, computeW: 4, loadW: 3,
			burstPages: 4, wsBytes: 32 << 10, loadWS: 24 << 20,
			missRate: 0.02, fpFrac: 0.7, reuse: true}},

		// ---- not SB-bound ----
		{Name: "perlbench", profile: profile{
			kind: burstMemcpy, burstShare: 0.01, computeW: 10, loadW: 4, scatterW: 2,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 512 << 10,
			missRate: 0.05, fpFrac: 0.0}},
		{Name: "gcc", profile: profile{
			kind: burstMemset, burstShare: 0.01, computeW: 10, loadW: 5, scatterW: 2,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 2 << 20,
			missRate: 0.06, fpFrac: 0.0}},
		{Name: "mcf", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 4, loadW: 10, scatterW: 1,
			burstPages: 1, wsBytes: 4 << 20, loadWS: 64 << 20,
			missRate: 0.07, fpFrac: 0.0}},
		{Name: "omnetpp", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 6, loadW: 8, scatterW: 2,
			burstPages: 1, wsBytes: 4 << 20, loadWS: 32 << 20,
			missRate: 0.05, fpFrac: 0.0}},
		{Name: "xalancbmk", profile: profile{
			kind: burstMemcpy, burstShare: 0.01, computeW: 8, loadW: 6, scatterW: 1,
			burstPages: 1, wsBytes: 8 << 20, loadWS: 8 << 20,
			missRate: 0.04, fpFrac: 0.0}},
		{Name: "exchange2", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 12, loadW: 2,
			burstPages: 1, wsBytes: 2 << 20, loadWS: 256 << 10,
			missRate: 0.04, fpFrac: 0.0}},
		{Name: "leela", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 10, loadW: 4, scatterW: 1,
			burstPages: 1, wsBytes: 2 << 20, loadWS: 1 << 20,
			missRate: 0.08, fpFrac: 0.0}},
		{Name: "xz", profile: profile{
			kind: burstMemcpy, burstShare: 0.015, computeW: 8, loadW: 6, scatterW: 1,
			burstPages: 3, wsBytes: 16 << 20, loadWS: 16 << 20,
			missRate: 0.05, fpFrac: 0.0}},
		{Name: "namd", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 12, loadW: 3,
			burstPages: 1, wsBytes: 4 << 20, loadWS: 2 << 20,
			missRate: 0.01, fpFrac: 0.8}},
		{Name: "parest", profile: profile{
			kind: burstRMW, burstShare: 0.01, computeW: 10, loadW: 4,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 4 << 20,
			missRate: 0.02, fpFrac: 0.7}},
		{Name: "povray", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 12, loadW: 3,
			burstPages: 1, wsBytes: 2 << 20, loadWS: 512 << 10,
			missRate: 0.03, fpFrac: 0.6}},
		{Name: "lbm", profile: profile{
			kind: burstRMW, burstShare: 0.015, computeW: 6, loadW: 6,
			burstPages: 4, wsBytes: 32 << 20, loadWS: 32 << 20,
			missRate: 0.01, fpFrac: 0.8, reuse: true}},
		{Name: "wrf", profile: profile{
			kind: burstMemcpy, burstShare: 0.01, computeW: 10, loadW: 4,
			burstPages: 2, wsBytes: 16 << 20, loadWS: 8 << 20,
			missRate: 0.02, fpFrac: 0.7}},
		{Name: "imagick", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 12, loadW: 3,
			burstPages: 1, wsBytes: 4 << 20, loadWS: 1 << 20,
			missRate: 0.02, fpFrac: 0.6}},
		{Name: "nab", profile: profile{
			kind: burstMemset, burstShare: 0, computeW: 10, loadW: 4,
			burstPages: 1, wsBytes: 4 << 20, loadWS: 2 << 20,
			missRate: 0.02, fpFrac: 0.7}},
	}
}

// The suites, built once: in name order, and by name.
var (
	specSuite, specIndex     = index(specTable(), func(w Workload) string { return w.Name })
	parsecSuite, parsecIndex = index(parsecTable(), func(p Parallel) string { return p.Name })
)

func index[T any](suite []T, name func(T) string) ([]T, map[string]T) {
	sort.SliceStable(suite, func(i, j int) bool { return name(suite[i]) < name(suite[j]) })
	byName := make(map[string]T, len(suite))
	for _, w := range suite {
		byName[name(w)] = w
	}
	return suite, byName
}

// SPEC returns the SPEC CPU 2017-like suite in a stable order.
func SPEC() []Workload { return slices.Clone(specSuite) }

// SPECByName returns the named workload or an error.
func SPECByName(name string) (Workload, error) {
	if w, ok := specIndex[name]; ok {
		return w, nil
	}
	return Workload{}, fmt.Errorf("workloads: unknown SPEC workload %q", name)
}

// SBBoundSPEC returns only the paper's SB-bound applications.
func SBBoundSPEC() []Workload {
	var out []Workload
	for _, w := range specSuite {
		if w.SBBound {
			out = append(out, w)
		}
	}
	return out
}

// Build returns the workload's infinite instruction stream for the given
// seed. The same (name, seed) pair always yields the identical stream.
func (w Workload) Build(seed uint64) *trace.Program {
	return w.build(seed, 0)
}

// build constructs the generator; base offsets all regions, letting the
// PARSEC wrapper give each thread a private address space. The result is a
// trace.Program; TestWorkloadStreamsPinned holds the first 300 000
// instructions of every workload's stream (120 000 of each of four PARSEC
// threads) to a recorded digest.
func (w Workload) build(seed uint64, base mem.Addr) *trace.Program {
	p := w.profile
	rng := trace.NewRNG(seed ^ trace.SeedFromString(w.Name))

	burstReg := trace.NewMemRegion(base+0x1000_0000, p.wsBytes)
	// Copies read warm data (an L3-resident source) and write a colder
	// destination buffer: it is the destination's ownership misses, not
	// the source reads, that fill the store buffer.
	srcBytes := p.wsBytes
	if srcBytes > 16<<10 {
		srcBytes = 16 << 10
	}
	srcReg := trace.NewMemRegion(base+0x9000_0000, srcBytes)
	loadReg := trace.NewMemRegion(base+0x1_2000_0000, p.loadWS)
	scatterReg := trace.NewMemRegion(base+0x1_8000_0000, 16<<20)

	burstBytes := uint64(p.burstPages) * mem.PageSize

	var burst []trace.Leaf
	switch p.kind {
	case burstMemset:
		burst = []trace.Leaf{{Op: trace.OpMemset, Dst: burstReg, Bytes: burstBytes, Size: 8, PC: trace.PCLib + 0x200}}
	case burstMemcpy:
		burst = []trace.Leaf{{Op: trace.OpMemcpy, Src: srcReg, Dst: burstReg, Bytes: burstBytes, PC: trace.PCLib + 0x400}}
	case burstRMW:
		burst = []trace.Leaf{{Op: trace.OpRMW, Dst: burstReg, Bytes: burstBytes, PC: trace.PCApp + 0x800}}
	case burstClearPage:
		// The kernel clear_page pattern, once per page handed out.
		burst = []trace.Leaf{{Op: trace.OpMemset, Dst: burstReg, Bytes: mem.PageSize, Size: 8,
			PC: trace.PCKernel + 0x100, Repeat: p.burstPages}}
	case burstAppCopy:
		// A manual for-loop copy: same access pattern as memcpy but with
		// application PCs (deepsjeng/roms in Fig. 3).
		burst = []trace.Leaf{{Op: trace.OpMemcpy, Src: srcReg, Dst: burstReg, Bytes: burstBytes, PC: trace.PCApp + 0xC00}}
	default:
		panic("workloads: unknown burst kind")
	}
	if p.reuse {
		// After writing, stream back over the freshly written data with
		// loads feeding branches: the read-back that lets SPB's exclusive
		// prefetches also serve loads (§VI.A's super-linear speedups).
		burst = append(burst, trace.Leaf{Op: trace.OpStridedLoads, Dst: burstReg,
			Count: int(burstBytes / 256), Stride: 256, PC: trace.PCApp + 0x1000})
	}

	// The non-burst phases, each weighted in thousandths of its profile
	// weight; otherInsts is their instructions per thousandth.
	parts := []trace.Phase{}
	otherInsts := 0
	add := func(w int, leaf trace.Leaf) {
		parts = append(parts, trace.Phase{Weight: w * 1000, Leaves: []trace.Leaf{leaf}})
		otherInsts += w * leaf.Insts()
	}
	if p.computeW > 0 {
		add(p.computeW, trace.Leaf{
			Op: trace.OpCompute, Compute: trace.ComputeOptions{
				Count:    600,
				FPFrac:   p.fpFrac,
				MulFrac:  0.15,
				DivFrac:  0.02,
				DepFrac:  0.5,
				BrFrac:   0.18,
				MissRate: p.missRate,
				PC:       trace.PCApp + 0x2000,
			}})
	}
	if p.loadW > 0 {
		add(p.loadW, trace.Leaf{Op: trace.OpLoadUse, Dst: loadReg, Count: 120,
			MissRate: p.missRate, PC: trace.PCApp + 0x3000})
		add((p.loadW+1)/2, trace.Leaf{Op: trace.OpStridedLoads, Dst: loadReg, Count: 160,
			Stride: 64, PC: trace.PCApp + 0x3800})
	}
	if p.scatterW > 0 {
		add(p.scatterW, trace.Leaf{Op: trace.OpScatterStores, Dst: scatterReg, Count: 48, PC: trace.PCApp + 0x4000})
	}

	// Solve the burst weight so that the expected instruction share of
	// burst phases matches the profile's target:
	//   wB*burstInsts / (wB*burstInsts + otherInstsPerKilounit) = share.
	if p.burstShare > 0 {
		share := p.burstShare
		if share >= 0.95 {
			share = 0.95
		}
		burstInsts := 0
		for i := range burst {
			burstInsts += burst[i].Insts()
		}
		wB := int(share/(1-share)*float64(otherInsts*1000)/float64(burstInsts) + 0.5)
		if wB < 1 {
			wB = 1
		}
		parts = append(parts, trace.Phase{Weight: wB, Leaves: burst})
	}
	return trace.NewProgram(rng, parts...)
}

// Parallel is one multi-threaded (PARSEC-like) benchmark.
type Parallel struct {
	Name    string
	SBBound bool
	// base is the underlying per-thread profile; shareW adds phases that
	// touch a region shared by all threads, exercising the coherence
	// protocol the way the paper's Fig. 18 experiment does.
	base   profile
	shareW int
}

// parsecTable lists the PARSEC-like suite (the paper runs all of PARSEC except
// freqmine and raytrace, with 8 threads).
func parsecTable() []Parallel {
	return []Parallel{
		{Name: "bodytrack", SBBound: true, shareW: 2, base: profile{
			kind: burstMemcpy, burstShare: 0.08, computeW: 6, loadW: 3,
			burstPages: 4, wsBytes: 32 << 20, loadWS: 512 << 10,
			missRate: 0.03, fpFrac: 0.5}},
		{Name: "dedup", SBBound: true, shareW: 2, base: profile{
			kind: burstMemcpy, burstShare: 0.12, computeW: 5, loadW: 3,
			burstPages: 4, wsBytes: 32 << 20, loadWS: 512 << 10,
			missRate: 0.02, fpFrac: 0.0}},
		{Name: "ferret", SBBound: true, shareW: 2, base: profile{
			kind: burstMemset, burstShare: 0.10, computeW: 6, loadW: 4,
			burstPages: 4, wsBytes: 32 << 20, loadWS: 512 << 10,
			missRate: 0.02, fpFrac: 0.3}},
		{Name: "x264", SBBound: true, shareW: 1, base: profile{
			kind: burstMemcpy, burstShare: 0.10, computeW: 6, loadW: 3,
			burstPages: 4, wsBytes: 32 << 20, loadWS: 512 << 10,
			missRate: 0.03, fpFrac: 0.1}},
		{Name: "blackscholes", shareW: 1, base: profile{
			kind: burstMemset, burstShare: 0, computeW: 12, loadW: 3,
			burstPages: 1, wsBytes: 2 << 20, loadWS: 1 << 20,
			missRate: 0.01, fpFrac: 0.8}},
		{Name: "canneal", shareW: 3, base: profile{
			kind: burstMemset, burstShare: 0, computeW: 4, loadW: 10, scatterW: 2,
			burstPages: 1, wsBytes: 2 << 20, loadWS: 48 << 20,
			missRate: 0.05, fpFrac: 0.0}},
		{Name: "fluidanimate", shareW: 2, base: profile{
			kind: burstRMW, burstShare: 0.01, computeW: 8, loadW: 5,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 8 << 20,
			missRate: 0.02, fpFrac: 0.7}},
		{Name: "streamcluster", shareW: 2, base: profile{
			kind: burstMemset, burstShare: 0.01, computeW: 6, loadW: 8,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 16 << 20,
			missRate: 0.02, fpFrac: 0.6}},
		{Name: "swaptions", shareW: 1, base: profile{
			kind: burstMemset, burstShare: 0, computeW: 12, loadW: 3,
			burstPages: 1, wsBytes: 2 << 20, loadWS: 512 << 10,
			missRate: 0.02, fpFrac: 0.7}},
		{Name: "vips", shareW: 1, base: profile{
			kind: burstMemcpy, burstShare: 0.01, computeW: 9, loadW: 4,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 4 << 20,
			missRate: 0.03, fpFrac: 0.4}},
		{Name: "facesim", shareW: 2, base: profile{
			kind: burstRMW, burstShare: 0.01, computeW: 9, loadW: 4,
			burstPages: 2, wsBytes: 8 << 20, loadWS: 8 << 20,
			missRate: 0.02, fpFrac: 0.7}},
	}
}

// PARSEC returns the PARSEC-like suite in a stable order.
func PARSEC() []Parallel { return slices.Clone(parsecSuite) }

// PARSECByName returns the named parallel workload.
func PARSECByName(name string) (Parallel, error) {
	if p, ok := parsecIndex[name]; ok {
		return p, nil
	}
	return Parallel{}, fmt.Errorf("workloads: unknown PARSEC workload %q", name)
}

// sharedBase is the address of the region all threads of a parallel
// workload share; its final hotSize bytes are the store-contended hot area.
const (
	sharedBase mem.Addr = 0x7_0000_0000
	sharedSize uint64   = 8 << 20
	hotSize    uint64   = 64 << 10
)

// Build returns one infinite instruction stream per thread. Thread private
// regions are disjoint; a shared read-mostly region (with occasional
// stores) exercises the coherence protocol.
func (p Parallel) Build(seed uint64, threads int) []*trace.Program {
	if threads <= 0 {
		panic("workloads: thread count must be positive")
	}
	readers := make([]*trace.Program, threads)
	for t := 0; t < threads; t++ {
		w := Workload{Name: p.Name, profile: p.base}
		tseed := seed ^ trace.SeedFromString(fmt.Sprintf("%s/%d", p.Name, t))
		base := mem.Addr(0x10_0000_0000) * mem.Addr(t+1)
		private := w.build(tseed, base)
		if p.shareW == 0 {
			readers[t] = private
			continue
		}
		rng := trace.NewRNG(tseed ^ 0xBEEF)
		shared := trace.NewMemRegion(sharedBase, 4<<20)
		// Stores concentrate on a small hot area (task queues, locks,
		// reference counts), which is where PARSEC's coherence traffic
		// actually comes from; reads roam the whole shared structure.
		hot := trace.NewMemRegion(sharedBase+mem.Addr(sharedSize-hotSize), hotSize)
		// The private stream participates as 512-instruction phases; the
		// shared phase is a load-use sweep of the structure then a burst of
		// hot stores.
		readers[t] = trace.NewProgram(rng,
			trace.Phase{Weight: 10, Sub: private, Take: 512},
			trace.Phase{Weight: p.shareW, Leaves: []trace.Leaf{
				{Op: trace.OpLoadUse, Dst: shared, Count: 48,
					MissRate: p.base.missRate, PC: trace.PCApp + 0x5000},
				{Op: trace.OpScatterStores, Dst: hot, Count: 6, PC: trace.PCApp + 0x5800},
			}},
		)
	}
	return readers
}
