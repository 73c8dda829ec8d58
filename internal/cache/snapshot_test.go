package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"spb/internal/mem"
)

// fuzzCache is the cache FuzzSnapshotFits restores into: 4 sets of 4 ways, so
// a set's live mask and recency word each fit 16 bits of one fuzzed uint64.
func fuzzCache() *Cache { return New("fuzz", 4*4*64, 4, 4) }

const fuzzCores = 2

// packed is a snapshot's live masks and recency words, 16 bits a set.
func packed(s *Snapshot) (live, rec uint64) {
	for set := range s.Live {
		live |= uint64(s.Live[set]) << (16 * set)
		rec |= s.Rec[set] << (16 * set)
	}
	return live, rec
}

// FuzzSnapshotFits feeds Fits arbitrary record streams, live masks and
// recency words for a small cache. The law: Fits refuses the snapshot, or the
// snapshot restores and snapshots back to the same bytes — a stream Fits
// accepts is the one Snapshot would have written — with every restored line
// found where its block maps. Nothing panics.
func FuzzSnapshotFits(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 6, 40} {
		c := fuzzCache()
		for i := 0; i < n; i++ {
			l, _, _ := c.Insert(mem.Block(rng.Intn(1<<20)), State(1+rng.Intn(3)), uint64(rng.Intn(1<<16)), rng.Intn(2) == 0, rng.Intn(2) == 0)
			l.SetOwner(rng.Intn(fuzzCores+1) - 1)
			l.Sharers = uint64(rng.Intn(1 << fuzzCores))
			if rng.Intn(4) == 0 {
				c.Invalidate(l.Block)
			}
		}
		s := c.Snapshot()
		c.Release()
		live, rec := packed(s)
		f.Add(s.Records, live, rec)
		if len(s.Records) == 0 {
			continue
		}
		// The tag opens the stream: the varint seeds replace it.
		f.Add(s.Records[:len(s.Records)-1], live, rec)                                           // the last record truncated
		f.Add(append(append(bytes.Repeat([]byte{0x81}, 10), 0x00), s.Records[1:]...), live, rec) // an 11-byte varint
		f.Add(append([]byte{0x80, 0x00}, s.Records[1:]...), live, rec)                           // a varint longer than its value
		f.Add(append(slices.Clone(s.Records), 0), live, rec)                                     // trailing bytes
		f.Add(append(slices.Clone(s.Records), 3, byte(Shared), 0, 0, 0), live, rec)              // one record long
		for set := 0; set < 4; set++ {
			if m := live >> (16 * set) & 0xF; m != 0xF {
				f.Add(s.Records, live|(m+1)&^m<<(16*set), rec) // one record short: a free way turns live
				break
			}
		}
	}
	f.Fuzz(func(t *testing.T, records []byte, live, rec uint64) {
		c := fuzzCache()
		defer c.Release()
		s := &Snapshot{Records: records, Rec: make([]uint64, 4), Live: make([]uint16, 4)}
		for set := range s.Live {
			s.Live[set] = uint16(live >> (16 * set))
			s.Rec[set] = rec >> (16 * set) & 0xFFFF
		}
		if s.Fits(c, fuzzCores) != nil {
			return
		}
		c.Restore(s)
		again := c.Snapshot()
		if !bytes.Equal(again.Records, s.Records) || !slices.Equal(again.Live, s.Live) || !slices.Equal(again.Rec, s.Rec) {
			t.Fatalf("restore + snapshot is not the identity:\nin:  %x %x %x\nout: %x %x %x",
				s.Records, s.Live, s.Rec, again.Records, again.Live, again.Rec)
		}
		c.ForEach(func(l *Line) bool {
			if c.Peek(l.Block) != l {
				t.Fatalf("restored block %#x is not found where it maps", l.Block)
			}
			return true
		})
	})
}
