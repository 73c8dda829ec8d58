package figures

import (
	"context"
	"testing"

	"spb/internal/sim"
)

// recorder is an Executor that simulates nothing: it keeps every batch it is
// handed and answers each point with the zero Result (which no figure
// divides integers by).
type recorder struct{ batches [][]sim.RunSpec }

func (r *recorder) GetAllCtx(_ context.Context, specs []sim.RunSpec) ([]sim.Result, error) {
	r.batches = append(r.batches, specs)
	return make([]sim.Result, len(specs)), nil
}

// TestEverySpecCarriesWarmupAndSampling: whatever an experiment overrides in
// its points, it builds them from Harness.spec, so `spbtables -warmup/-sample`
// reaches every registered experiment — and each submits at most one batch.
func TestEverySpecCarriesWarmupAndSampling(t *testing.T) {
	scale := Scale{Insts: 100_000, Warmup: 7_000,
		Sampling: sim.SamplingConfig{IntervalInsts: 20_000, DetailedInsts: 2_000, WarmInsts: 3_000}}
	rec := &recorder{}
	h := NewHarnessOn(context.Background(), scale, rec)
	for _, e := range Experiments {
		rec.batches = nil
		if _, err := e.Gen(h); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(rec.batches) > 1 {
			t.Errorf("%s submitted %d batches, want its points as one", e.ID, len(rec.batches))
		}
		for _, batch := range rec.batches {
			for _, s := range batch {
				if s.WarmupInsts != scale.Warmup || s.Sampling != scale.Sampling {
					t.Fatalf("%s submits %s/%v/SB%d with warmup %d and sampling %+v, not the scale's",
						e.ID, s.Workload, s.Policy, s.SQSize, s.WarmupInsts, s.Sampling)
				}
			}
		}
	}
}

// TestVerifyGeneratesEachExperimentOnce: eleven claims read seven experiments
// (fig1, fig5, fig8, fig11, fig12, fig7, sb20), and Verify runs each once.
func TestVerifyGeneratesEachExperimentOnce(t *testing.T) {
	rec := &recorder{}
	results := NewHarnessOn(context.Background(), Scale{Insts: 10_000, SBBoundOnly: true}, rec).Verify()
	if len(results) != len(Expectations()) {
		t.Fatalf("%d results for %d expectations", len(results), len(Expectations()))
	}
	if len(rec.batches) != 7 {
		t.Fatalf("Verify made %d GetAllCtx calls, want 7", len(rec.batches))
	}
}

func TestExpectationsWellFormed(t *testing.T) {
	exps := Expectations()
	if len(exps) < 10 {
		t.Fatalf("only %d expectations, want the paper's headline claims", len(exps))
	}
	for _, e := range exps {
		if e.ID == "" || e.Claim == "" {
			t.Fatalf("expectation missing identity: %+v", e)
		}
		if e.Lo >= e.Hi {
			t.Fatalf("%s: empty band [%v, %v]", e.Claim, e.Lo, e.Hi)
		}
	}
	// A name that resolves to no experiment, table, row or column is the
	// failure a positional index could only show as a wrong number: on real
	// tables, at a scale too small for the bands, every claim must still
	// measure something.
	for _, r := range NewHarness(Scale{Insts: 20_000, SBBoundOnly: true}).Verify() {
		if r.Err != nil {
			t.Errorf("%s (%s): %v", r.Claim, r.ID, r.Err)
		}
	}
}

func TestVerifyAllClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("verification sweep skipped in -short mode")
	}
	h := NewHarness(Scale{Insts: 60_000, SBBoundOnly: true})
	for _, r := range h.Verify() {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Claim, r.Err)
			continue
		}
		if !r.Pass {
			t.Errorf("%s: measured %.3f outside [%.2f, %.2f] (paper %.3f)",
				r.Claim, r.Measured, r.Lo, r.Hi, r.Paper)
		}
	}
}
