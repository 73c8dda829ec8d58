// Package server implements spbd, the simulation-as-a-service daemon. A job
// has one life, and each stage of it is written once (DESIGN.md §8): submit
// coalesces duplicates and walks the result tiers (tiers.go: the in-memory
// sim.Runner, then the content-addressed disk store); admit puts a miss at
// the back of the FIFO queue and in the journal; a worker runs it; end is
// the one terminal transition and pays everything an ending owes. Progress
// is streamed over SSE and operational counters are exported in Prometheus
// text format.
package server

import (
	"fmt"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/sim"
)

// RunRequest is the JSON wire form of a sim.RunSpec. Enumerations travel as
// their String() names ("spb", "stream", ...) so requests are writable by
// hand with curl; zero-valued fields take the same defaults the simulator
// applies (RunSpec.Normalized). It is shared by the POST /v1/runs body, the
// stored cache entries, and the spbd client.
type RunRequest struct {
	Workload   string `json:"workload"`
	Policy     string `json:"policy,omitempty"`
	SB         int    `json:"sb,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`
	Core       string `json:"core,omitempty"`
	Cores      int    `json:"cores,omitempty"`
	Insts      uint64 `json:"insts,omitempty"`
	Warmup     uint64 `json:"warmup_insts,omitempty"`
	WindowN    int    `json:"window_n,omitempty"`

	DynamicSPB      bool   `json:"dynamic_spb,omitempty"`
	CoalesceSB      bool   `json:"coalesce_sb,omitempty"`
	BackwardBursts  bool   `json:"backward_bursts,omitempty"`
	CrossPageBursts bool   `json:"cross_page_bursts,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`

	// SMARTS sampling (DESIGN.md §14): a non-zero interval requests a
	// sampled run — short detailed windows at SampleDetail instructions
	// behind SampleWarm of detailed warming, one per SampleInterval
	// instructions, with confidence intervals in the sample.* stats.
	// SampleHistory, when non-zero, bounds functional warming to the last
	// that-many instructions of each inter-window skip (MRRL/BLRL-style).
	SampleInterval uint64 `json:"sample_interval_insts,omitempty"`
	SampleDetail   uint64 `json:"sample_detailed_insts,omitempty"`
	SampleWarm     uint64 `json:"sample_warm_insts,omitempty"`
	SampleHistory  uint64 `json:"sample_history_insts,omitempty"`
}

// Spec converts the wire form into a sim.RunSpec, resolving the enum names.
// An empty policy or prefetcher means the corresponding zero value
// ("none"-policy, "stream"-prefetcher), matching the zero sim.RunSpec.
func (r RunRequest) Spec() (sim.RunSpec, error) {
	spec := sim.RunSpec{
		Workload:        r.Workload,
		SQSize:          r.SB,
		CoreName:        r.Core,
		Cores:           r.Cores,
		Insts:           r.Insts,
		WarmupInsts:     r.Warmup,
		WindowN:         r.WindowN,
		DynamicSPB:      r.DynamicSPB,
		CoalesceSB:      r.CoalesceSB,
		BackwardBursts:  r.BackwardBursts,
		CrossPageBursts: r.CrossPageBursts,
		Sampling: sim.SamplingConfig{
			IntervalInsts: r.SampleInterval,
			DetailedInsts: r.SampleDetail,
			WarmInsts:     r.SampleWarm,
			HistoryInsts:  r.SampleHistory,
		},
		Seed: r.Seed,
	}
	if r.Workload == "" {
		return sim.RunSpec{}, fmt.Errorf("missing workload")
	}
	if r.Policy != "" {
		p, err := core.ParsePolicy(r.Policy)
		if err != nil {
			return sim.RunSpec{}, err
		}
		spec.Policy = p
	}
	if r.Prefetcher != "" {
		k, err := config.ParsePrefetcher(r.Prefetcher)
		if err != nil {
			return sim.RunSpec{}, err
		}
		spec.Prefetcher = k
	}
	// What parses may still describe no machine (65 cores): refuse it here,
	// where it is a 400, rather than let it reach a worker.
	if err := spec.Validate(); err != nil {
		return sim.RunSpec{}, err
	}
	return spec, nil
}

// Request converts a sim.RunSpec into its wire form (the inverse of Spec,
// modulo normalization).
func Request(spec sim.RunSpec) RunRequest {
	return RunRequest{
		Workload:        spec.Workload,
		Policy:          spec.Policy.String(),
		SB:              spec.SQSize,
		Prefetcher:      spec.Prefetcher.String(),
		Core:            spec.CoreName,
		Cores:           spec.Cores,
		Insts:           spec.Insts,
		Warmup:          spec.WarmupInsts,
		WindowN:         spec.WindowN,
		DynamicSPB:      spec.DynamicSPB,
		CoalesceSB:      spec.CoalesceSB,
		BackwardBursts:  spec.BackwardBursts,
		CrossPageBursts: spec.CrossPageBursts,
		SampleInterval:  spec.Sampling.IntervalInsts,
		SampleDetail:    spec.Sampling.DetailedInsts,
		SampleWarm:      spec.Sampling.WarmInsts,
		SampleHistory:   spec.Sampling.HistoryInsts,
		Seed:            spec.Seed,
	}
}
