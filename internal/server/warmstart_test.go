package server

import (
	"bytes"
	"strings"
	"testing"

	"spb/internal/sim"
)

// warmGrid is a miniature warmed sweep: two workloads sharing their warmup
// across policy and SQ-size knobs. Per workload the four points form one
// warmup-equivalence group, so a warm-start server simulates 2 warmups for
// 8 detailed runs.
func warmGrid() []RunRequest {
	var specs []RunRequest
	for _, wl := range []string{"bwaves", "mcf"} {
		for _, pol := range []string{"spb", "at-commit"} {
			for _, sb := range []int{14, 56} {
				specs = append(specs, RunRequest{
					Workload: wl, Policy: pol, SB: sb,
					Insts: 8_000, Warmup: 30_000,
				})
			}
		}
	}
	return specs
}

// TestBatchWarmStartEquivalence is the end-to-end half of the warm-start
// equivalence suite (DESIGN.md §12): a warmed sweep submitted through spbd's
// batch path, whose runner starts every point from its group's shared
// snapshot, must return canonical stats byte-identical to sim.Run executing
// each point's warmup in place.
func TestBatchWarmStartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("warmed sweep, skipped in -short")
	}
	specs := warmGrid()

	srv, ts := testServer(t, Config{Workers: 2})
	done := terminalByIndex(t, postBatch(t, ts.URL, BatchRequest{Specs: specs}))
	if len(done) != len(specs) {
		t.Fatalf("terminal items: %d, want %d", len(done), len(specs))
	}
	for i, req := range specs {
		if done[i].Status != StatusDone {
			t.Fatalf("warm-start spec %d: %s (%s)", i, done[i].Status, done[i].Error)
		}
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		inPlace, err := ref.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(done[i].Stats, inPlace) {
			t.Errorf("spec %d (%+v): warm-start stats differ from in-place stats:\n  spbd:     %s\n  in place: %s",
				i, req, done[i].Stats, inPlace)
		}
	}

	// Exactly-once warmup accounting: one warm per workload group, one fork
	// per point, each group's warmup elided for all forks but the first.
	ss := srv.Runner().SimStats()
	if ss.WarmGroups != 2 || ss.WarmForks != uint64(len(specs)) {
		t.Errorf("groups=%d forks=%d, want 2 and %d", ss.WarmGroups, ss.WarmForks, len(specs))
	}
	if wantSaved := uint64(2 * 3 * 30_000); ss.WarmInstsSaved != wantSaved {
		t.Errorf("WarmInstsSaved = %d, want %d", ss.WarmInstsSaved, wantSaved)
	}

	// The fork accounting is scrapeable.
	text := metricsText(t, ts)
	for _, want := range []string{
		"spbd_warmstart_groups_total 2",
		"spbd_warmstart_forks_total 8",
		"spbd_sim_insts_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
