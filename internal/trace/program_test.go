package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"spb/internal/mem"
)

// This file is the oracle of Program, in the package that owns it. A fuzz
// input spells a program out leaf by leaf; the same spelling builds the
// reference — each activation expanded by a plain loop written from its Op's
// definition, under the pick loop Program documents — and three Programs, and
// the target holds them to four laws, and a replay of the stream recorded to a
// trace file to the last three (the record → replay law):
//
//	(a) Next is the reference, instruction for instruction;
//	(b) any interleaving of Next, Skip, SkipTouch and Warm, split wherever the
//	    script says — mid-element, mid-activation, across a Take boundary —
//	    leaves the stream where that many Next calls would;
//	(c) SkipTouch's spans hold every access Next makes, and cover no block of
//	    either kind that Next does not touch; Warm reports Next's accesses in
//	    order, less only what its documented elision rule drops;
//	(d) a Clone taken anywhere continues as its parent would have, whatever
//	    the parent does meanwhile and whatever the clone does to the parent.
//
// The workloads package checks the same laws on the 27 shipped
// parameterisations (element size 8, strides 64 and 256, page-multiple
// bursts); here sizes run 1–32, bursts end mid-element, strides run 1–4096,
// leaves repeat, share regions and outgrow them.

// leafSpec is one decoded leaf: the parameters both constructions are built
// from.
type leafSpec struct {
	op       Op
	dst, src int
	bytes    uint64
	count    int
	stride   uint64
	size     int
	repeat   int
	pc       uint64
}

const (
	recLen    = 8  // bytes per leaf record
	opBreak   = 9  // record op that starts a new phase
	recReplay = 10 // record op of OpReplay, which Op numbers as opBreak
	numRecOps = 11 // ops a record byte is reduced to
)

// rec spells one leaf record; decodeLeaves is its inverse. n is the element
// size of a memset or of strided stores and the count of everything counted.
func rec(op Op, dst, src int, bytes uint16, n uint8, stride uint16, repeat uint8) []byte {
	b := make([]byte, recLen)
	b[0], b[1], b[4], b[7] = byte(op), byte(dst<<2|src), n, repeat
	if op == OpReplay {
		b[0] = recReplay
	}
	binary.LittleEndian.PutUint16(b[2:], bytes)
	binary.LittleEndian.PutUint16(b[5:], stride)
	return b
}

func phaseBreak() []byte { return rec(opBreak, 0, 0, 0, 0, 0, 0) }

func decodeLeaves(data []byte) [][]leafSpec {
	phases, leaves := [][]leafSpec{nil}, 0
	for i := 0; len(data) >= recLen && i < 24; i, data = i+1, data[recLen:] {
		r := data[:recLen]
		op := Op(r[0] % numRecOps)
		switch op {
		case opBreak:
			phases = append(phases, nil)
			continue
		case recReplay:
			op = OpReplay
		}
		raw := uint64(binary.LittleEndian.Uint16(r[2:]))
		s := leafSpec{
			op: op, dst: int(r[1] >> 2 & 3), src: int(r[1] & 3),
			bytes:  1 + raw%9000,
			count:  1 + int(r[4]) + int(raw&0x100),
			stride: 1 + uint64(binary.LittleEndian.Uint16(r[5:]))%4096,
			size:   1 + int(r[4])%32,
			repeat: int(r[7] % 4),
			pc:     PCApp + uint64(i+1)<<12,
		}
		last := len(phases) - 1
		phases[last] = append(phases[last], s)
		leaves++
	}
	if leaves == 0 { // a program of empty phases never emits
		phases[0] = []leafSpec{{op: OpMemset, bytes: 100, size: 8, pc: PCLib}}
	}
	return phases
}

func specCompute(s leafSpec) ComputeOptions {
	return ComputeOptions{Count: s.count, FPFrac: 0.4, MulFrac: 0.15, DivFrac: 0.02,
		DepFrac: 0.5, BrFrac: float64(s.size) / 40, MissRate: 0.03, PC: s.pc}
}

// records is what a replay leaf spelled by s replays: count instructions
// from a generator seeded by the stride, of every kind and stores half the
// time, from two PCs, the accesses 1–64 bytes long and starting within
// s.bytes of Dst's base — so that some cross a block and some repeat the
// block and PC of the access before them.
func (s leafSpec) records(regs []*MemRegion) []Inst {
	rng := NewRNG(s.stride)
	out := make([]Inst, s.count)
	for i := range out {
		in := &out[i]
		in.Kind, in.Dep1, in.PC = Kind(rng.Intn(NumKinds)), uint8(rng.Intn(4)), s.pc+uint64(rng.Intn(2))*4
		if rng.Bool(0.5) {
			in.Kind = KindStore
		}
		switch {
		case in.Kind.IsMem():
			in.Addr, in.Size = regs[s.dst].Base+mem.Addr(rng.Uint64()%s.bytes), uint8(1+rng.Intn(mem.BlockSize))
		case in.Kind == KindBranch:
			in.Taken, in.Mispredicted = rng.Bool(0.7), rng.Bool(0.1)
		}
	}
	return out
}

// fuzzRegions returns the four regions a spelled program addresses: small, so
// that bursts wrap them and the longest outgrow them.
func fuzzRegions(base mem.Addr) []*MemRegion {
	return []*MemRegion{
		NewMemRegion(base+0x10_0000, 1*mem.PageSize),
		NewMemRegion(base+0x20_0000, 2*mem.PageSize),
		NewMemRegion(base+0x30_0000, 4*mem.PageSize),
		NewMemRegion(base+0x40_0000, 16*mem.PageSize),
	}
}

func (s leafSpec) leaf(regs []*MemRegion) Leaf {
	l := Leaf{Op: s.op, Dst: regs[s.dst], PC: s.pc, Repeat: s.repeat}
	switch s.op {
	case OpMemset:
		l.Bytes, l.Size = s.bytes, s.size
	case OpMemcpy:
		l.Src, l.Bytes = regs[s.src], s.bytes
	case OpRMW:
		l.Bytes = s.bytes
	case OpStridedStores:
		l.Count, l.Stride, l.Size = s.count, s.stride, s.size
	case OpStridedLoads:
		l.Count, l.Stride = s.count, s.stride
	case OpPointerChase, OpScatterStores:
		l.Count = s.count
	case OpCompute:
		l.Compute = specCompute(s)
	case OpLoadUse:
		l.Count, l.MissRate = s.count, 0.05
	case OpReplay:
		l.Records = s.records(regs)
	}
	return l
}

// The header byte of an input: whether the spelled program runs as the
// Sub/Take phase of an outer one (the PARSEC construction), and how many
// instructions a Take draws.
const flagSub = 1

// outerSpecs is the outer program's other phase: a load-use sweep, then a
// short memset.
var outerSpecs = []leafSpec{
	{op: OpLoadUse, dst: 2, count: 5, pc: PCApp + 0x5000},
	{op: OpMemset, dst: 0, bytes: 100, size: 8, pc: PCApp + 0x5800},
}

func buildProgram(seed uint64, flags, take byte, phases [][]leafSpec) *Program {
	regs := fuzzRegions(0)
	parts := make([]Phase, len(phases))
	for i, ph := range phases {
		parts[i].Weight = 1 + i%3
		for _, s := range ph {
			parts[i].Leaves = append(parts[i].Leaves, s.leaf(regs))
		}
	}
	p := NewProgram(NewRNG(seed), parts...)
	if flags&flagSub == 0 {
		return p
	}
	outer := fuzzRegions(0x1000_0000)
	return NewProgram(NewRNG(seed^0xBEEF),
		Phase{Weight: 3, Sub: p, Take: 1 + uint64(take)},
		Phase{Weight: 1, Leaves: []Leaf{outerSpecs[0].leaf(outer), outerSpecs[1].leaf(outer)}})
}

// activation is the reference for one activation of s: its Op's definition
// as a plain loop, sharing no code with the Program.
func (s leafSpec) activation(rng *RNG, regs []*MemRegion) (out []Inst) {
	dst, pc := regs[s.dst], s.pc
	switch s.op {
	case OpMemset:
		base := dst.NextChunk(s.bytes)
		for o := uint64(0); o < s.bytes; o += uint64(s.size) {
			out = append(out, Inst{Kind: KindStore, Addr: base + mem.Addr(o), Size: uint8(s.size), PC: pc})
		}
	case OpMemcpy:
		src := regs[s.src].NextChunk(s.bytes)
		base := dst.NextChunk(s.bytes)
		for o := uint64(0); o < s.bytes; o += 8 {
			out = append(out, Inst{Kind: KindLoad, Addr: src + mem.Addr(o), Size: 8, PC: pc},
				Inst{Kind: KindStore, Addr: base + mem.Addr(o), Size: 8, Dep1: 1, PC: pc + 4})
		}
	case OpRMW:
		base := dst.NextChunk(s.bytes)
		for o := uint64(0); o < s.bytes; o += 8 {
			out = append(out, Inst{Kind: KindLoad, Addr: base + mem.Addr(o), Size: 8, PC: pc},
				Inst{Kind: KindIntALU, Dep1: 1, PC: pc + 4},
				Inst{Kind: KindStore, Addr: base + mem.Addr(o), Size: 8, Dep1: 1, PC: pc + 8})
		}
	case OpStridedStores, OpStridedLoads:
		base := dst.NextChunk(uint64(s.count) * s.stride)
		for i := 0; i < s.count; i++ {
			in := Inst{Kind: KindLoad, Addr: base + mem.Addr(uint64(i)*s.stride), Size: 8, PC: pc}
			if s.op == OpStridedStores {
				in.Kind, in.Size = KindStore, uint8(s.size)
			}
			out = append(out, in)
		}
	case OpPointerChase, OpScatterStores:
		for i := 0; i < s.count; i++ {
			in := Inst{Kind: KindLoad, Addr: dst.RandomAddr(rng, 8, 8), Size: 8, Dep1: uint8(min(i, 1)), PC: pc}
			if s.op == OpScatterStores {
				in.Kind, in.Dep1 = KindStore, 0
			}
			out = append(out, in)
		}
	case OpCompute:
		o, branches := specCompute(s), 0
		for i := 1; i <= o.Count; i++ {
			in := Inst{PC: o.PC + uint64(i%64)*4}
			if rng.Bool(o.BrFrac) {
				branches++
				in.Kind, in.Dep1, in.Taken, in.Mispredicted = KindBranch, 1, branches%8 != 0, rng.Bool(o.MissRate)
			} else {
				fp := rng.Bool(o.FPFrac)
				switch {
				case rng.Bool(o.DivFrac):
					in.Kind = KindIntDiv
				case rng.Bool(o.MulFrac):
					in.Kind = KindIntMul
				}
				if fp { // each integer kind's FP twin is three kinds on
					in.Kind += KindFPALU - KindIntALU
				}
				if rng.Bool(o.DepFrac) {
					in.Dep1 = uint8(1 + rng.Intn(4))
				}
			}
			out = append(out, in)
		}
	case OpLoadUse:
		for i := 0; i < s.count; i++ {
			out = append(out, Inst{Kind: KindLoad, Addr: dst.RandomAddr(rng, 8, 8), Size: 8, PC: pc},
				Inst{Kind: KindBranch, Dep1: 1, PC: pc + 4, Taken: rng.Bool(0.85), Mispredicted: rng.Bool(0.05)})
		}
	case OpReplay:
		out = s.records(regs)
	}
	return out
}

// refStream is the reference Program: the pick loop Program documents over
// activations expanded whole, a picked phase at a time. With sub set, phase 0
// is a Take of that many instructions of sub.
type refStream struct {
	rng     *RNG
	regs    []*MemRegion
	phases  [][]leafSpec
	weights []int
	sub     *refStream
	take    int
	queue   []Inst
}

func (r *refStream) Next(out *Inst) bool {
	for len(r.queue) == 0 {
		total, k := 0, 0
		for _, w := range r.weights {
			total += w
		}
		for n := r.rng.Intn(total); n >= r.weights[k]; k++ {
			n -= r.weights[k]
		}
		if r.sub != nil && k == 0 {
			r.queue = Collect(r.sub, r.take)
		}
		for _, s := range r.phases[k] {
			for a := 0; a < max(s.repeat, 1); a++ {
				r.queue = append(r.queue, s.activation(r.rng, r.regs)...)
			}
		}
	}
	*out, r.queue = r.queue[0], r.queue[1:]
	return true
}

func buildReference(seed uint64, flags, take byte, phases [][]leafSpec) Reader {
	ref := &refStream{rng: NewRNG(seed), regs: fuzzRegions(0), phases: phases}
	for i := range phases {
		ref.weights = append(ref.weights, 1+i%3)
	}
	if flags&flagSub == 0 {
		return ref
	}
	return &refStream{rng: NewRNG(seed ^ 0xBEEF), regs: fuzzRegions(0x1000_0000),
		phases: [][]leafSpec{nil, outerSpecs}, weights: []int{3, 1}, sub: ref, take: 1 + int(take)}
}

// span is one SkipTouch report; event one Warm report.
type span struct {
	addr  mem.Addr
	n     uint64
	store bool
}

type event struct {
	pc    uint64
	addr  mem.Addr
	store bool
}

func blocksOf(set map[mem.Block]bool, a mem.Addr, n uint64) {
	for b := mem.BlockOf(a); b <= mem.BlockOf(a+mem.Addr(n-1)); b++ {
		set[b] = true
	}
}

// checkTouch holds the spans of one SkipTouch call against the instructions
// it skipped.
func checkTouch(t *testing.T, at int, insts []Inst, spans []span) {
	t.Helper()
	var want, got [2]map[mem.Block]bool
	for k := range want {
		want[k], got[k] = map[mem.Block]bool{}, map[mem.Block]bool{}
	}
	kind := func(store bool) int {
		if store {
			return 1
		}
		return 0
	}
	for _, sp := range spans {
		if sp.n == 0 {
			t.Fatalf("SkipTouch at %d reported an empty span at %#x", at, sp.addr)
		}
		blocksOf(got[kind(sp.store)], sp.addr, sp.n)
	}
	for i, in := range insts {
		if !in.Kind.IsMem() {
			continue
		}
		store := in.Kind == KindStore
		blocksOf(want[kind(store)], in.Addr, uint64(in.Size))
		held := false
		for _, sp := range spans {
			if sp.store == store && sp.addr <= in.Addr && in.Addr+mem.Addr(in.Size) <= sp.addr+mem.Addr(sp.n) {
				held = true
				break
			}
		}
		if !held {
			t.Fatalf("SkipTouch at %d: no span holds instruction %d %+v", at, at+i, in)
		}
	}
	for k, name := range []string{"load", "store"} {
		for b := range got[k] {
			if !want[k][b] {
				t.Fatalf("SkipTouch at %d: %s block %#x reported, never touched", at, name, uint64(b))
			}
		}
	}
}

// checkWarm holds the events of one Warm call against the instructions it
// covered: every load and store, in order, less an access repeating the
// (PC, block, kind) of the access before it.
func checkWarm(t *testing.T, at int, insts []Inst, events []event) {
	t.Helper()
	var expect []event
	var last *event
	for _, in := range insts {
		if !in.Kind.IsMem() {
			continue
		}
		ev := event{pc: in.PC, addr: in.Addr, store: in.Kind == KindStore}
		repeat := last != nil && last.pc == ev.pc && last.store == ev.store && mem.BlockOf(last.addr) == mem.BlockOf(ev.addr)
		if last = &ev; !repeat {
			expect = append(expect, ev)
		}
	}
	if len(events) != len(expect) {
		t.Fatalf("Warm at %d over %d instructions reported %d events, Next has %d", at, len(insts), len(events), len(expect))
	}
	for i := range expect {
		if events[i] != expect[i] {
			t.Fatalf("Warm at %d: event %d is %+v, Next has %+v", at, i, events[i], expect[i])
		}
	}
}

// stepLen spreads a script byte over the lengths that matter: 0–127 lands on
// every slot of every element, the rest cross activations and phases.
func stepLen(b byte) int {
	if b < 128 {
		return int(b)
	}
	return int(b-127) * 41
}

func checkProgram(t *testing.T, seed uint64, shape, script []byte) {
	if len(shape) < 2 {
		return
	}
	flags, take, phases := shape[0], shape[1], decodeLeaves(shape[2:])
	ref := buildReference(seed, flags, take, phases)
	twin := buildProgram(seed, flags, take, phases) // Next only
	if len(script) > 96 {
		script = script[:96]
	}
	// Driven by the script: a Program, and a replay of as much of its stream
	// as the script reads, recorded to a trace file.
	n := 600
	for i := 0; i+1 < len(script); i += 2 {
		n += stepLen(script[i+1]) + 2
	}
	var file bytes.Buffer
	if _, err := WriteTrace(&file, buildProgram(seed, flags, take, phases), uint64(n)); err != nil {
		t.Fatal(err)
	}
	recs, err := OpenTrace(&file)
	if err != nil {
		t.Fatal(err)
	}
	driven := []struct {
		name string
		p    *Program
	}{
		{"Program", buildProgram(seed, flags, take, phases)},
		{"replay", onePhase(NewRNG(seed), Leaf{Op: OpReplay, Records: recs})},
	}

	// hist is the stream so far: the twin's, checked against the reference.
	var hist []Inst
	extend := func(n int) []Inst {
		from := len(hist)
		for i := 0; i < n; i++ {
			var want, got Inst
			if !ref.Next(&want) || !twin.Next(&got) {
				t.Fatalf("stream ran dry at %d", len(hist))
			}
			if want != got {
				t.Fatalf("instruction %d: reference emits %+v, Program.Next %+v", len(hist), want, got)
			}
			hist = append(hist, got)
		}
		return hist[from:]
	}
	expectNext := func(who string, q *Program, insts []Inst, at int) {
		t.Helper()
		for i, want := range insts {
			var got Inst
			if !q.Next(&got) || got != want {
				t.Fatalf("%s: instruction %d is %+v, want %+v", who, at+i, got, want)
			}
		}
	}

	type fork struct {
		p    *Program
		at   int
		name string
	}
	var forks []fork
	for i := 0; i+1 < len(script); i += 2 {
		at, k := len(hist), stepLen(script[i+1])
		insts := extend(k)
		for _, d := range driven {
			p := d.p
			switch script[i] % 6 {
			case 0:
				expectNext(d.name+" after Next", p, insts, at)
			case 1:
				p.Skip(uint64(k))
			case 2:
				var spans []span
				p.SkipTouch(uint64(k), func(a mem.Addr, n uint64, store bool) { spans = append(spans, span{a, n, store}) })
				checkTouch(t, at, insts, spans)
			case 3, 4:
				var events []event
				p.Warm(uint64(k), func(pc uint64, a mem.Addr, store bool) { events = append(events, event{pc: pc, addr: a, store: store}) })
				checkWarm(t, at, insts, events)
			case 5:
				p.Skip(uint64(k))
				forks = append(forks, fork{p.Clone(), len(hist), d.name})
			}
		}
		// Whatever the call was, the stream stands where k Next calls leave it.
		after := extend(2)
		for _, d := range driven {
			expectNext(d.name+" after script step", d.p, after, len(hist)-2)
		}
	}
	// Each clone, run only now, continues from where it was taken: nothing the
	// parent did since reached it. A clone of the clone does the same.
	extend(600)
	for _, f := range forks {
		tail := hist[f.at:]
		if len(tail) > 600 {
			tail = tail[:600]
		}
		f.p.Skip(uint64(len(tail) / 3))
		second := f.p.Clone()
		expectNext(f.name+" clone", f.p, tail[len(tail)/3:], f.at+len(tail)/3)
		expectNext(f.name+" clone of clone", second, tail[len(tail)/3:], f.at+len(tail)/3)
	}
	// And nothing the clones did reached the parent.
	for _, d := range driven {
		expectNext(d.name+" after its clones ran", d.p, hist[len(hist)-600:], len(hist)-600)
	}
}

// leafTable is the hand-written half of the oracle: each dense op alone at
// sizes that end a burst mid-element, the stride classes a span and a block
// step treat differently, repeats, shared and outgrown regions, every op in
// one phase, the Sub/Take wrapping, and replay leaves alone, among other ops
// and under a Take. The scripts below visit every call at every small length.
var leafTable = []struct {
	name  string
	flags byte
	take  byte
	recs  [][]byte
}{
	{"memset/size3-ends-mid-element", 0, 0, [][]byte{rec(OpMemset, 0, 0, 1000, 2, 0, 0)}},
	{"memset/size32-repeat3", 0, 0, [][]byte{rec(OpMemset, 1, 0, 4999, 31, 0, 3)}},
	{"memset/outgrows-region", 0, 0, [][]byte{rec(OpMemset, 0, 0, 8000, 6, 0, 2)}},
	{"memcpy/odd-bytes", 0, 0, [][]byte{rec(OpMemcpy, 1, 2, 1001, 0, 0, 0)}},
	{"memcpy/onto-itself", 0, 0, [][]byte{rec(OpMemcpy, 2, 2, 777, 0, 0, 2)}},
	{"rmw/odd-bytes-repeat", 0, 0, [][]byte{rec(OpRMW, 2, 0, 333, 0, 0, 1)}},
	{"stores/stride1", 0, 0, [][]byte{rec(OpStridedStores, 1, 0, 0, 200, 0, 0)}},
	{"stores/stride48-size17", 0, 0, [][]byte{rec(OpStridedStores, 2, 0, 0, 16, 47, 1)}},
	{"stores/stride64", 0, 0, [][]byte{rec(OpStridedStores, 3, 0, 0, 100, 63, 0)}},
	{"stores/stride65-size32", 0, 0, [][]byte{rec(OpStridedStores, 3, 0, 0, 31, 64, 3)}},
	{"stores/stride4096", 0, 0, [][]byte{rec(OpStridedStores, 3, 0, 0, 40, 4095, 0)}},
	{"loads/stride7", 0, 0, [][]byte{rec(OpStridedLoads, 1, 0, 0, 250, 6, 2)}},
	{"loads/stride256-long", 0, 0, [][]byte{rec(OpStridedLoads, 3, 0, 0x100, 99, 255, 0)}},
	{"shared-region", 0, 0, [][]byte{
		rec(OpMemset, 1, 0, 700, 4, 0, 0), rec(OpStridedLoads, 1, 0, 0, 30, 99, 0),
		rec(OpMemcpy, 1, 1, 500, 0, 0, 0), rec(OpRMW, 1, 0, 90, 0, 0, 0)}},
	{"every-op-one-phase", 0, 0, [][]byte{
		rec(OpMemset, 0, 0, 130, 4, 0, 0), rec(OpMemcpy, 1, 2, 130, 0, 0, 0), rec(OpRMW, 2, 0, 130, 0, 0, 0),
		rec(OpStridedStores, 3, 0, 0, 20, 23, 0), rec(OpStridedLoads, 3, 0, 0, 20, 99, 0),
		rec(OpPointerChase, 3, 0, 0, 9, 0, 0), rec(OpScatterStores, 2, 0, 0, 9, 0, 1),
		rec(OpCompute, 0, 0, 0, 70, 0, 0), rec(OpLoadUse, 1, 0, 0, 9, 0, 2)}},
	{"phases", 0, 0, [][]byte{
		rec(OpMemcpy, 2, 1, 300, 0, 0, 0), phaseBreak(), rec(OpCompute, 0, 0, 0, 40, 0, 0), phaseBreak(),
		phaseBreak(), rec(OpRMW, 0, 0, 50, 0, 0, 3), rec(OpStridedLoads, 0, 0, 0, 7, 63, 0)}},
	{"sub/take1", flagSub, 0, [][]byte{rec(OpRMW, 2, 0, 100, 0, 0, 0), rec(OpMemcpy, 1, 2, 100, 0, 0, 0)}},
	{"sub/take200", flagSub, 199, [][]byte{
		rec(OpMemset, 1, 0, 3000, 7, 0, 1), phaseBreak(), rec(OpLoadUse, 2, 0, 0, 30, 0, 0),
		rec(OpStridedStores, 3, 0, 0, 50, 31, 0)}},
	{"replay/alone", 0, 0, [][]byte{rec(OpReplay, 1, 0, 200, 90, 7, 0)}},
	{"replay/repeat-wide", 0, 0, [][]byte{rec(OpReplay, 3, 0, 8000, 255, 4000, 2)}},
	{"replay/among-ops", 0, 0, [][]byte{
		rec(OpMemset, 0, 0, 300, 8, 0, 0), rec(OpReplay, 2, 0, 100, 40, 3, 1), phaseBreak(),
		rec(OpLoadUse, 1, 0, 0, 9, 0, 0), rec(OpReplay, 0, 0, 64, 7, 11, 0)}},
	{"sub/replay", flagSub, 60, [][]byte{rec(OpReplay, 1, 0, 500, 120, 5, 1), rec(OpCompute, 0, 0, 0, 30, 0, 0)}},
}

func FuzzLeafWrittenOnce(f *testing.F) {
	// Every call at every length 0–11, then a long stretch of each.
	var small, long []byte
	for k := byte(0); k < 12; k++ {
		for op := byte(0); op < 6; op++ {
			small = append(small, op, k)
		}
	}
	for op := byte(0); op < 6; op++ {
		long = append(long, op, 100, op, 140, op, 255, op+1, 3)
	}
	for _, c := range leafTable {
		shape := []byte{c.flags, c.take}
		for _, r := range c.recs {
			shape = append(shape, r...)
		}
		f.Add(uint64(7), shape, small)
		f.Add(uint64(42), shape, long)
	}
	f.Fuzz(checkProgram)
}

// TestCloneCostIsTheCursor: a fork copies the cursor — the generator state,
// the region cursors, the sub-program cursors — and nothing of the phase
// table, so what Clone allocates does not grow with it.
func TestCloneCostIsTheCursor(t *testing.T) {
	build := func(phases, leaves int) *Program {
		regs := fuzzRegions(0)
		parts := make([]Phase, phases)
		for i := range parts {
			parts[i].Weight = 1
			for j := 0; j < leaves; j++ {
				parts[i].Leaves = append(parts[i].Leaves,
					Leaf{Op: OpMemcpy, Src: regs[j%4], Dst: regs[(j+1)%4], Bytes: 256, PC: PCApp})
			}
		}
		p := NewProgram(NewRNG(1), parts...)
		p.Skip(1000)
		return p
	}
	var sink *Program
	allocs := func(p *Program) float64 {
		return testing.AllocsPerRun(100, func() { sink = p.Clone() })
	}
	small, large := allocs(build(1, 1)), allocs(build(64, 16))
	_ = sink
	if small != large || large > 2 {
		t.Fatalf("Clone allocates %v times for 1 leaf and %v times for 1024: a fork must cost the cursor (the Program and its region cursors), not the phase table", small, large)
	}
}
