package sim

import (
	"testing"

	"spb/internal/core"
)

func TestExportStats(t *testing.T) {
	r, err := Run(RunSpec{Workload: "blender", Policy: core.PolicySPB, SQSize: 14, Insts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	s := map[string]uint64{}
	r.ExportStats(s)
	if s["cpu.committed"] != 30_000 {
		t.Fatalf("cpu.committed = %d, want 30000", s["cpu.committed"])
	}
	if s["cpu.cycles"] != r.CPU.Cycles {
		t.Fatal("cpu.cycles mismatch")
	}
	if s["mem.spfIssued"] != r.Mem.SPFIssued {
		t.Fatal("mem.spfIssued mismatch")
	}
	if s["energy.totalUJ"] == 0 {
		t.Fatal("energy export missing")
	}
	// Every section is present, zero-valued counters included.
	for _, want := range []string{"cpu.sbStallCycles", "mem.l1TagAccesses", "td.sbBound", "energy.totalUJ"} {
		if _, ok := s[want]; !ok {
			t.Fatalf("export missing %s", want)
		}
	}
	// The export is additive: exporting twice doubles each counter (the
	// aggregation semantics for multi-run dumps).
	r.ExportStats(s)
	if s["cpu.committed"] != 60_000 {
		t.Fatal("ExportStats must be additive")
	}
}
