package cpu

import (
	"math/rand"
	"sort"
	"testing"
)

// refOcc is the obviously-right model of the occupancy calendar: the multiset
// of release cycles, kept sorted.
type refOcc []uint64

func (r *refOcc) add(release uint64) {
	i := sort.Search(len(*r), func(i int) bool { return (*r)[i] > release })
	*r = append(*r, 0)
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = release
}

// occupancy drops every entry released at or before t and counts the rest.
func (r *refOcc) occupancy(t uint64) int {
	n := sort.Search(len(*r), func(i int) bool { return (*r)[i] > t })
	*r = (*r)[n:]
	return len(*r)
}

// releaseCycle is the cycle at which fewer than threshold entries remain: the
// (len - threshold + 1)-th smallest release.
func (r refOcc) releaseCycle(threshold int) uint64 { return r[len(r)-threshold] }

// TestOccHeapMatchesReference drives the calendar and the sorted multiset
// through the same random add / occupancy / releaseCycle sequences, with query
// cycles that never decrease, as the core issues them. Releases land a few
// cycles ahead (the ring), hundreds ahead (several bitmap words), and beyond
// the 1024-cycle window (the far heap, and its refill of the ring as the
// cursor approaches); the cursor moves by single cycles, by dozens, and by
// jumps of several windows with entries in flight.
func TestOccHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h occHeap
		var ref refOcc
		now := uint64(rng.Intn(5000))
		usedFar, bigJump := false, false
		for op := 0; op < 60_000; op++ {
			switch k := rng.Intn(100); {
			case k < 45:
				var ahead uint64
				switch d := rng.Intn(20); {
				case d < 12:
					ahead = uint64(rng.Intn(12))
				case d < 17:
					ahead = uint64(rng.Intn(occWindow))
				default:
					ahead = uint64(occWindow - 4 + rng.Intn(3*occWindow))
				}
				release := now + ahead
				// The core only adds after an occupancy query of the cycle.
				if got, want := h.occupancy(now), ref.occupancy(now); got != want {
					t.Fatalf("seed %d op %d: occupancy(%d) = %d, reference %d", seed, op, now, got, want)
				}
				h.add(release)
				if release > now {
					ref.add(release) // one at or before now is expired already
				}
				usedFar = usedFar || len(h.far) > 0
			case k < 85:
				switch d := rng.Intn(40); {
				case d < 30:
					now += uint64(rng.Intn(3))
				case d < 38:
					now += uint64(rng.Intn(200))
				case d < 39:
					now += uint64(occWindow + rng.Intn(4*occWindow))
					bigJump = bigJump || len(ref) > 0
				}
				if got, want := h.occupancy(now), ref.occupancy(now); got != want {
					t.Fatalf("seed %d op %d: occupancy(%d) = %d, reference %d", seed, op, now, got, want)
				}
			case k < 99:
				n := ref.occupancy(now)
				if got := h.occupancy(now); got != n {
					t.Fatalf("seed %d op %d: occupancy(%d) = %d, reference %d", seed, op, now, got, n)
				}
				if n == 0 {
					continue
				}
				threshold := 1 + rng.Intn(n)
				if got, want := h.releaseCycle(threshold), ref.releaseCycle(threshold); got != want {
					t.Fatalf("seed %d op %d: releaseCycle(%d) at cycle %d with %d held = %d, reference %d",
						seed, op, threshold, now, n, got, want)
				}
			}
			if op%64 != 0 {
				continue
			}
			for i, n := range h.buckets {
				if (n != 0) != (h.occ[i>>6]>>(uint(i)&63)&1 != 0) {
					t.Fatalf("seed %d op %d: bucket %d holds %d, bitmap says %v", seed, op, i, n, n == 0)
				}
			}
		}
		if !usedFar || !bigJump {
			t.Fatalf("seed %d: far heap used %v, cursor jumped a window over live entries %v; the sequence must do both", seed, usedFar, bigJump)
		}
	}
}
