package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"spb/internal/core"
	"spb/internal/sim"
)

// stdout runs f and returns what it printed.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return string(<-done)
}

// TestReplayMatchesSpbsim: replaying a recorded stream is the run spbsim makes
// of the workload it was recorded from — same cycles, SB-stall cycles and
// bursts — for bwaves at seed 1, spb, SB 14.
func TestReplayMatchesSpbsim(t *testing.T) {
	const insts = 200_000
	file := filepath.Join(t.TempDir(), "bwaves.spbt")
	stdout(t, func() {
		record([]string{"-workload", "bwaves", "-insts", fmt.Sprint(insts), "-seed", "1", "-o", file})
	})
	out := stdout(t, func() { replay([]string{"-policy", "spb", "-sb", "14", file}) })

	var committed, cycles, stalls, bursts uint64
	var ipc, pct float64
	var pol string
	var sb int
	if _, err := fmt.Sscanf(out, "replayed %d instructions (policy %s SB %d)\ncycles %d, IPC %f, SB stalls %d (%f%%), SPB bursts %d\n",
		&committed, &pol, &sb, &cycles, &ipc, &stalls, &pct, &bursts); err != nil {
		t.Fatalf("replay printed %q: %v", out, err)
	}
	res, err := sim.Run(sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: insts, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.CPU
	if committed != st.Committed || cycles != st.Cycles || stalls != st.SBStallCycles || bursts != st.SPBBursts {
		t.Fatalf("replay: %d committed, %d cycles, %d SB-stall cycles, %d bursts; spbsim: %d, %d, %d, %d",
			committed, cycles, stalls, bursts, st.Committed, st.Cycles, st.SBStallCycles, st.SPBBursts)
	}
}
