package storebuf

import (
	"testing"

	"spb/internal/config"
	"spb/internal/mem"
)

// camStore is one store of the reference buffer.
type camStore struct {
	addr, size, seq uint64
	senior          bool
}

// cam is the store buffer as the paper draws it: a plain slice of stores,
// oldest first, that a load searches youngest-first for an overlap — no
// ring, no block filter, no index arithmetic. With coalesce, a store that
// starts where the youngest junior store ends and ends in that store's
// first block extends it.
type cam struct {
	stores   []camStore
	capacity int
	coalesce bool
	tail     uint64
}

// allocate reports the sequence number the store takes, or false when the
// buffer has no room for it.
func (c *cam) allocate(addr, size uint64) (uint64, bool) {
	if n := len(c.stores); c.coalesce && n > 0 {
		y := &c.stores[n-1]
		if !y.senior && y.addr+y.size == addr && y.addr/mem.BlockSize == (addr+size-1)/mem.BlockSize {
			y.size += size
			return y.seq, true
		}
	}
	if len(c.stores) == c.capacity {
		return 0, false
	}
	c.stores = append(c.stores, camStore{addr: addr, size: size, seq: c.tail})
	c.tail++
	return c.tail - 1, true
}

func (c *cam) forward(addr, size, beforeSeq uint64) ForwardResult {
	for i := len(c.stores) - 1; i >= 0; i-- {
		s := c.stores[i]
		if s.seq >= beforeSeq || s.addr+s.size <= addr || addr+size <= s.addr {
			continue
		}
		if s.addr <= addr && addr+size <= s.addr+s.size {
			return FullForward
		}
		return PartialForward
	}
	return NoForward
}

func (c *cam) seniors() int {
	n := 0
	for n < len(c.stores) && c.stores[n].senior {
		n++
	}
	return n
}

// camAddr maps two script bytes to an address within 512 bytes of a page
// boundary, in one of four blocks that share a forward-filter slot.
func camAddr(x, y byte) uint64 {
	v := uint64(x)<<8 | uint64(y)
	return 0x10000 - 512 + v%1024 + (v>>10&3)*sbFilterSize*mem.BlockSize
}

// runCAMScript drives a store buffer and the reference through one script
// of four-byte steps (op, x, y, z) and fails at the first step where they
// disagree. op%4 picks the step:
//
//	0 Allocate a store of 1+z%64 bytes at camAddr(x, y), when CanAccept
//	1 Commit the oldest junior store; with none, re-commit the youngest
//	  senior one, as a core does for a store merged into it
//	2 Pop the head, when it is senior
//	3 Forward a load of 1+z%64 bytes, before a sequence number op>>2&31
//	  picks between one past the tail and one below the head; with op's
//	  top bit set, the load starts within 12 bytes of a buffered store
func runCAMScript(t *testing.T, capacity int, coalesce bool, script []byte) {
	sb := New(capacity)
	if coalesce {
		sb = NewCoalescing(capacity)
	}
	defer sb.Release()
	ref := &cam{capacity: capacity, coalesce: coalesce}
	for i := 0; i+4 <= len(script); i += 4 {
		op, x, y, z := script[i], script[i+1], script[i+2], script[i+3]
		size := uint64(1 + z%64)
		switch op % 4 {
		case 0:
			addr := camAddr(x, y)
			want, ok := ref.allocate(addr, size)
			if got := sb.CanAccept(mem.Addr(addr), uint8(size)); got != ok {
				t.Fatalf("SB %d coalesce=%t step %d: CanAccept(%#x, %d) = %t, reference %t", capacity, coalesce, i/4, addr, size, got, ok)
			}
			if !ok {
				continue
			}
			if got := sb.Allocate(mem.Addr(addr), uint8(size), 0); got != want {
				t.Fatalf("SB %d coalesce=%t step %d: Allocate(%#x, %d) = seq %d, reference %d", capacity, coalesce, i/4, addr, size, got, want)
			}
		case 1:
			if n := ref.seniors(); n < len(ref.stores) {
				ref.stores[n].senior = true
				sb.Commit(ref.stores[n].seq)
			} else if coalesce && n > 0 {
				sb.Commit(ref.stores[n-1].seq)
			}
		case 2:
			if len(ref.stores) == 0 || !ref.stores[0].senior {
				continue
			}
			want := ref.stores[0]
			ref.stores = ref.stores[1:]
			if got := sb.Pop(); uint64(got.Addr) != want.addr || uint64(got.Size) != want.size || got.Seq != want.seq {
				t.Fatalf("SB %d coalesce=%t step %d: Pop = %#x+%d seq %d, reference %#x+%d seq %d", capacity, coalesce, i/4, got.Addr, got.Size, got.Seq, want.addr, want.size, want.seq)
			}
		case 3:
			addr := camAddr(x, y)
			if n := len(ref.stores); op&0x80 != 0 && n > 0 {
				addr = ref.stores[int(x)%n].addr + uint64(y%25) - 12
			}
			span := uint64(len(ref.stores) + 2) // one past the tail down to one below the head
			beforeSeq := ref.tail + 1 - min(uint64(op>>2&31)*span/31, ref.tail+1)
			if got, want := sb.Forward(mem.Addr(addr), uint8(size), beforeSeq), ref.forward(addr, size, beforeSeq); got != want {
				t.Fatalf("SB %d coalesce=%t step %d: Forward(%#x, %d, before %d) = %v, reference %v", capacity, coalesce, i/4, addr, size, beforeSeq, got, want)
			}
		}
		if sb.Len() != len(ref.stores) || sb.SeniorLen() != ref.seniors() || sb.TailSeq() != ref.tail {
			t.Fatalf("SB %d coalesce=%t step %d: Len %d, SeniorLen %d, TailSeq %d; reference %d, %d, %d", capacity, coalesce, i/4,
				sb.Len(), sb.SeniorLen(), sb.TailSeq(), len(ref.stores), ref.seniors(), ref.tail)
		}
	}
}

// FuzzForwardMatchesCAM holds the store buffer — its ring, its per-block
// forward filter and coalescing — to the plain slice above: under any
// script of allocates (1–64 bytes, block- and page-crossing), commits, pops
// and forwards, every load's verdict (full, partial or no forward) and every
// occupancy count match, with coalescing off and on, at the SB sizes the
// paper evaluates (14 and 56) and the ideal policy's.
func FuzzForwardMatchesCAM(f *testing.F) {
	at := func(addr uint64) (byte, byte) { v := addr - (0x10000 - 512); return byte(v >> 8), byte(v) }
	step := func(op byte, addr uint64, size byte) []byte {
		x, y := at(addr)
		return []byte{op, x, y, size - 1}
	}
	cat := func(steps ...[]byte) []byte {
		var s []byte
		for _, st := range steps {
			s = append(s, st...)
		}
		return s
	}
	// A page-crossing store, then loads it covers, overlaps and misses.
	f.Add(cat(step(0, 0x10000-8, 16), step(3, 0x10000-4, 8), step(3, 0x10000-12, 8), step(3, 0x10100, 8)))
	// Contiguous stores in one block: one entry under coalescing, so the
	// load across both forwards in full there and partially without it.
	f.Add(cat(step(0, 0xff00, 8), step(0, 0xff08, 8), step(3, 0xff04, 8), step(1, 0, 1), step(0, 0xff10, 8), step(3, 0xff0c, 8)))
	// Fill, commit, pop and refill SB 14 past a ring wrap, loading all along.
	var wrap []byte
	for i := uint64(0); i < 40; i++ {
		wrap = append(wrap, cat(step(0, 0xfe00+i*24, 24), step(1, 0, 1), step(0x83|byte(i%32)<<2, 0xfe00, 8), step(2, 0, 1))...)
		if i%3 == 0 {
			wrap = append(wrap, step(0, 0xfe00+i*24+4, 4)...)
		}
	}
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, capacity := range []int{14, 56, config.IdealSQSize} {
			for _, coalesce := range []bool{false, true} {
				runCAMScript(t, capacity, coalesce, script)
			}
		}
	})
}
