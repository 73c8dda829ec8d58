package core

import (
	"testing"

	"spb/internal/mem"
)

// section4 is the SPB detector as §IV of the paper describes it, on plain
// integers: three registers — the last committed store's block, a 4-bit
// saturating counter of +1 block steps, and the store count of the current
// window (it counts to N; DESIGN §3 records why that is wider than the
// paper's 5 bits at N = 48). Every N stores the counter is compared with
// N/8 and both window registers clear; a confirmed window asks for every
// block of the page after the current one. The one register beyond the 67
// bits is the page filter DESIGN §3 documents: no second burst for the page
// the previous burst was for.
//
// backward and crossPage are the two extensions, written from the same
// description: a second saturating counter of -1 block steps whose
// confirmed window, when the forward one is not confirmed, asks for every
// block of the page before the current one; and a forward burst that runs
// on through the whole next page.
type section4 struct {
	n                   int
	backward, crossPage bool

	last      uint64 // lastBlock: 58 bits of a 64-bit address
	sat, back int    // 4-bit saturating counters
	count     int    // stores in the window

	burstPage uint64 // the page filter
	bursted   bool

	checks, triggers uint64
}

// observe takes one committed store and returns the burst it triggers as
// (first block, block count), count 0 for none.
func (r *section4) observe(addr uint64) (start uint64, count int) {
	const blocksPerPage = 4096 / 64
	block := addr / 64
	switch {
	case block == r.last+1:
		r.sat = min(r.sat+1, 15)
	case block != r.last:
		r.sat = 0
	}
	switch {
	case r.last == block+1:
		r.back = min(r.back+1, 15)
	case block != r.last:
		r.back = 0
	}
	r.last = block
	if r.count++; r.count < r.n {
		return 0, 0
	}
	r.checks++
	forward := r.sat >= r.n/8
	backward := r.backward && r.back >= r.n/8
	r.sat, r.back, r.count = 0, 0, 0

	page := block / blocksPerPage
	switch {
	case forward:
		start, count = block+1, int(blocksPerPage-1-block%blocksPerPage)
		if count > 0 && r.crossPage {
			count += blocksPerPage
		}
	case backward:
		start, count = page*blocksPerPage, int(block%blocksPerPage)
	}
	if count == 0 || r.bursted && r.burstPage == page {
		return 0, 0
	}
	r.burstPage, r.bursted = page, true
	r.triggers++
	return start, count
}

// section4Base keeps every stream clear of address 0, so a descending run
// or a negative step cannot wrap the address space.
const section4Base = 1 << 24

// runSection4Stream drives a detector and the reference through one commit
// stream of three-byte steps (op, x, y) and fails at the first store where
// their bursts differ. A store is 1+x%32 bytes; op%4 picks the step:
//
//	0 a run of 1+y%64 stores, each starting where the previous one ended
//	1 a run of 1+y%64 stores, each one block below the previous one
//	2 move the cursor to page op>>2%4, at byte 16*y + x%16 of it
//	3 one store at the cursor plus the signed byte y
func runSection4Stream(t *testing.T, n int, o Options, stream []byte) {
	d := NewDetectorWithOptions(n, o)
	ref := &section4{n: n, backward: o.Backward, crossPage: o.CrossPage}
	cursor := uint64(section4Base)
	stores := 0
	store := func(addr uint64, size uint8) {
		stores++
		b, ok := d.Observe(mem.Addr(addr), size)
		start, count := ref.observe(addr)
		if ok != (count > 0) || ok && (uint64(b.Start) != start || b.Count != count) {
			t.Fatalf("N %d %+v store %d at %#x: Observe = %+v, %t; §IV reference = {Start:%d Count:%d}",
				n, o, stores, addr, b, ok, start, count)
		}
	}
	for i := 0; i+3 <= len(stream); i += 3 {
		op, x, y := stream[i], stream[i+1], stream[i+2]
		size := 1 + x%32
		switch op % 4 {
		case 0:
			for k := 0; k <= int(y%64); k++ {
				store(cursor, size)
				cursor += uint64(size)
			}
		case 1:
			for k := 0; k <= int(y%64); k++ {
				store(cursor, size)
				cursor -= mem.BlockSize
			}
		case 2:
			cursor = section4Base + uint64(op>>2%4)*mem.PageSize + uint64(y)<<4 + uint64(x%16)
		case 3:
			store(cursor+uint64(int64(int8(y))), size)
		}
	}
	if d.Checks != ref.checks || d.Triggers != ref.triggers {
		t.Fatalf("N %d %+v after %d stores: Checks %d, Triggers %d; §IV reference %d, %d",
			n, o, stores, d.Checks, d.Triggers, ref.checks, ref.triggers)
	}
}

// FuzzDetectorMatchesSection4 holds Detector.Observe to the §IV reference
// above: under any commit stream of 1–32 byte stores — dense runs, descending
// runs, jumps within and across pages, stray stores — every store triggers
// the same burst or none, at the window lengths the paper evaluates (24–48)
// and the smallest it allows. The plain detector is the paper's; the
// backward and cross-page extensions each run against the reference with the
// same extension on.
func FuzzDetectorMatchesSection4(f *testing.F) {
	// Fig. 4: contiguous 8-byte stores from a page's start.
	f.Add([]byte{2, 0, 0, 0, 7, 63, 0, 7, 63})
	// A dense run across a page boundary, then a run down the next page.
	f.Add([]byte{2, 8, 0xf8, 0, 15, 63, 0, 15, 63, 1, 7, 63, 1, 7, 63})
	// Stores that walk the last blocks of a page, then stray stores and a
	// return to the page the burst was for.
	f.Add([]byte{6, 0, 0xfc, 0, 31, 40, 3, 3, 0x80, 3, 3, 0x7f, 2, 0, 0xc0, 0, 31, 63, 0, 31, 63})
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, n := range []int{8, 24, 48} {
			for _, o := range []Options{{}, {Backward: true}, {CrossPage: true}} {
				runSection4Stream(t, n, o, stream)
			}
		}
	})
}
