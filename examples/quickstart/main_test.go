package main

import (
	"testing"

	"spb/internal/core"
)

// TestQuickstartPinned pins what the quickstart prints for each policy. A run
// ends when the store buffer has drained, so the cycles count the drain.
func TestQuickstartPinned(t *testing.T) {
	for _, c := range []struct {
		policy         core.Policy
		cycles, bursts uint64
	}{
		{core.PolicyAtCommit, 361_762, 0},
		{core.PolicySPB, 101_098, 64},
	} {
		st := run(c.policy)
		if st.Committed != 32768 || st.Cycles != c.cycles || st.SPBBursts != c.bursts {
			t.Errorf("%v: %d committed, %d cycles, %d bursts; want 32768, %d, %d",
				c.policy, st.Committed, st.Cycles, st.SPBBursts, c.cycles, c.bursts)
		}
	}
}
