package memsys

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"
	"time"

	"spb/internal/mem"
)

// TestSnapshotRefusesAFullRecentTable: a checksum-valid checkpoint whose
// prefetch-victim set has every table slot occupied must be refused by Fits.
// Restored, it hangs the run: the first L1 miss asks the set about its block
// and the probe, finding no empty slot to stop at, never ends — which the
// watchdog turns into a failure should Fits ever let one through again.
func TestSnapshotRefusesAFullRecentTable(t *testing.T) {
	s := New(tiny(), 1)
	defer s.Release()
	snap := s.Snapshot()
	vs := snap.Ports[0].VictimsOfPF
	for i := range s.ports[0].victimsOfPF.counts {
		vs.Slots = append(vs.Slots, recentSlot{Key: mem.Block(1<<40 + i), At: uint32(i), Count: 1})
	}
	if err := snap.Fits(s); err != nil {
		return
	}
	t.Error("a snapshot whose victim set has every table slot occupied fits")
	s.Restore(snap)
	done := make(chan struct{})
	go func() {
		s.Port(0).Load(0x1000, 0x400000, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the first L1 miss after restoring it never returns")
	}
}

// TestRecentSnapshotFits: a recent set's snapshot holds its live window and
// occupied slots only, survives gob and restores to a set that answers as the
// source does; and fits refuses every snapshot whose restored table a lookup
// could misread or never finish probing.
func TestRecentSnapshotFits(t *testing.T) {
	const capacity = 8 // a table of 16 slots
	src := newRecentSet(capacity)
	defer src.release()
	for b := mem.Block(1); b <= 5; b++ {
		src.Add(b)
	}
	src.Add(3)
	src.Take(2)
	snap := src.snapshot()
	if len(snap.Ring) != 6 || len(snap.Slots) != 4 {
		t.Fatalf("snapshot holds %d ring positions and %d slots, want the 6 added and the 4 distinct blocks left", len(snap.Ring), len(snap.Slots))
	}
	if err := snap.fits(src); err != nil {
		t.Fatalf("own snapshot refused: %v", err)
	}
	var buf bytes.Buffer
	decoded := &recentSnapshot{}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, snap) {
		t.Fatal("gob round trip changed the snapshot")
	}
	dst := newRecentSet(capacity)
	defer dst.release()
	for b := mem.Block(100); b < 120; b++ { // what a recycled set may hold
		dst.Add(b)
	}
	dst.restore(decoded)
	if again := dst.snapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatal("restore + snapshot is not the identity")
	}
	for b := mem.Block(1); b <= 6; b++ {
		if got, want := dst.Take(b), src.Take(b); got != want {
			t.Fatalf("Take(%d) = %v after restore, the source says %v", b, got, want)
		}
	}
	if cold := newRecentSet(capacity).snapshot(); cold.Ring != nil || cold.Slots != nil {
		t.Fatalf("a set nothing was added to snapshots to %+v", cold)
	}
	if (*recentSnapshot)(nil).fits(src) == nil {
		t.Error("a missing snapshot fits")
	}

	mask := uint32(src.mask)
	taken := func(s *recentSnapshot, at uint32) bool {
		return slices.ContainsFunc(s.Slots, func(sl recentSlot) bool { return sl.At == at })
	}
	// add puts an occupied slot into s, keeping the slots ascending.
	add := func(s *recentSnapshot, key mem.Block, at uint32) {
		s.Slots = append(s.Slots, recentSlot{Key: key, At: at, Count: 1})
		slices.SortFunc(s.Slots, func(a, b recentSlot) int { return cmp.Compare(a.At, b.At) })
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *recentSnapshot)
	}{
		{"every slot occupied", func(s *recentSnapshot) {
			for at := uint32(0); at <= mask; at++ {
				if !taken(s, at) {
					add(s, 1<<40+mem.Block(at), at)
				}
			}
		}},
		{"more slots than ring positions", func(s *recentSnapshot) {
			for at := uint32(0); len(s.Slots) <= capacity; at++ {
				if !taken(s, at) {
					add(s, 1<<40+mem.Block(at), at)
				}
			}
		}},
		{"slots not ascending", func(s *recentSnapshot) { s.Slots[0], s.Slots[1] = s.Slots[1], s.Slots[0] }},
		{"slot index repeated", func(s *recentSnapshot) { s.Slots[1].At = s.Slots[0].At }},
		{"slot index outside the table", func(s *recentSnapshot) { s.Slots[len(s.Slots)-1].At = mask + 1 }},
		{"zero count", func(s *recentSnapshot) { s.Slots[0].Count = 0 }},
		{"key past an empty slot from its home", func(s *recentSnapshot) {
			// A block whose home slot is empty, one slot past it: its probe
			// stops at the hole.
			for b := mem.Block(1 << 20); ; b++ {
				home := uint32(blockHash(b)) & mask
				if at := (home + 1) & mask; !taken(s, home) && !taken(s, at) {
					add(s, b, at)
					return
				}
			}
		}},
		{"key held twice", func(s *recentSnapshot) {
			// The second copy in the first's probe run, where a probe finds
			// the first and stops.
			first := s.Slots[0]
			at := (first.At + 1) & mask
			for taken(s, at) {
				at = (at + 1) & mask
			}
			add(s, first.Key, at)
		}},
		{"cursor outside the ring", func(s *recentSnapshot) { s.Next = capacity }},
		{"negative cursor", func(s *recentSnapshot) { s.Next = -1 }},
		{"window longer than the cursor", func(s *recentSnapshot) { s.Ring = append(s.Ring, 9) }},
		{"wrapped ring with a short window", func(s *recentSnapshot) { s.Filled = true }},
	} {
		bad := &recentSnapshot{
			Ring:   slices.Clone(snap.Ring),
			Next:   snap.Next,
			Filled: snap.Filled,
			Slots:  slices.Clone(snap.Slots),
		}
		tc.mutate(bad)
		if err := bad.fits(src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
