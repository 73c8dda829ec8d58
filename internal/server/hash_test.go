package server

import (
	"testing"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/sim"
)

// TestKeyDefaultedFieldsHashIdentically is the normalize-stability
// guarantee: a spec written with defaults left implicit and the same spec
// fully spelled out are the same simulation point and must share a content
// address — otherwise the disk cache re-simulates every sweep that spells
// its specs differently.
func TestKeyDefaultedFieldsHashIdentically(t *testing.T) {
	implicit := sim.RunSpec{Workload: "bwaves"}
	explicit := sim.RunSpec{
		Workload: "bwaves",
		Cores:    1,       // normalize default
		Insts:    200_000, // normalize default
		WindowN:  48,      // normalize default
		Seed:     1,       // normalize default
	}
	if Key(implicit) != Key(explicit) {
		t.Fatalf("defaulted spec hashes differently:\n  implicit %s\n  explicit %s",
			Key(implicit), Key(explicit))
	}
}

// TestKeyStableAcrossRestarts pins the content address to a golden value.
// The key must be a pure function of the normalized spec — no map
// iteration, pointer values, or other process-varying input — because
// on-disk cache entries written by one spbd process must hit in the next.
// If this test fails because the spec encoding deliberately changed, bump
// keyVersion and update the constants (old cache entries then miss, which
// is the safe direction).
func TestKeyStableAcrossRestarts(t *testing.T) {
	golden := []struct {
		spec sim.RunSpec
		key  string
	}{
		{sim.RunSpec{Workload: "bwaves"},
			"d2cbb053e2f0c1baaf5e17bc557b61f808f4a5ad1391742d6023f4eda4ce738d"},
		{sim.RunSpec{Workload: "dedup", Cores: 8, SQSize: 56},
			"f30721de44effa9d4c90d14385e1e3a0fa1208ba1ae751b20c45cad9ee851081"},
		// One row per remaining spec field, each set alone on bwaves.
		{sim.RunSpec{Workload: "mcf", Policy: core.PolicySPB},
			"7539c866b6f027f4bcc432aedf526d706f649144fefbca9875ad02652e322740"},
		{sim.RunSpec{Workload: "bwaves", SQSize: 14},
			"30686c5e51014dc66ae116dc538e0908094837f5e6602913f2d05d2b4b172faf"},
		{sim.RunSpec{Workload: "bwaves", Prefetcher: config.PrefetchAdaptive},
			"984789f156f2c82047b37476673d0efb98bff4514f8a88f6c09a08654d9694e8"},
		{sim.RunSpec{Workload: "bwaves", CoreName: "SLM"},
			"a331d2d5dfe999dd8a641170c464db54bfee4bf0949cb8520f4a1986696ceb9f"},
		{sim.RunSpec{Workload: "bwaves", Insts: 20_000},
			"c4f63f18907422475cb12c752205b31c014632f224eb1e6c91d6d2060972ce1d"},
		{sim.RunSpec{Workload: "bwaves", WarmupInsts: 30_000},
			"1565d32cffeb499486373ae3061690902afa068ae47823802c6235dfdcb73e2a"},
		{sim.RunSpec{Workload: "bwaves", WindowN: 32},
			"dbd40c6130980cbef06089041e287ae32ea324ad7cb4ebfe6ac7ca68f13f4b68"},
		{sim.RunSpec{Workload: "bwaves", DynamicSPB: true},
			"fa84e6dfa83fe4bb15e770293427b190d2bdad47c4a44e3177c9bee6db837e19"},
		{sim.RunSpec{Workload: "bwaves", CoalesceSB: true},
			"c30d26ee3714828e45da4538f9f03db20d5e72d2f57e0cb9374bad64ddd1c7b4"},
		{sim.RunSpec{Workload: "bwaves", BackwardBursts: true},
			"228c3e45ede68e53c0ee66f0d13b43114000bd0a5671b513baa542c82ad27724"},
		{sim.RunSpec{Workload: "bwaves", CrossPageBursts: true},
			"5fa57e31e5a832db976a3c5e7afac6add101c9d182720212db629c3277271e04"},
		{sim.RunSpec{Workload: "bwaves", Sampling: sim.SamplingConfig{
			IntervalInsts: 100_000, DetailedInsts: 5_000, WarmInsts: 20_000, HistoryInsts: 50_000}},
			"7c113a30334d97eefd764506ad13024873eb73db235a49e093f869e38b4bca73"},
		{sim.RunSpec{Workload: "bwaves", Seed: 7},
			"9ee0bf383e21fcf89c5c1c2f820f3a20c81d38495369da9309b4e236def64b46"},
		// A warmed, a sampled and an 8-core point as sweeps write them.
		{sim.RunSpec{Workload: "deepsjeng", Policy: core.PolicyAtCommit, SQSize: 14, Insts: 20_000,
			WarmupInsts: 30_000},
			"8c40e5e29c7f1d3e0dd89da236b3cf5aa975dc960480c470730b67dbd8c9c1a2"},
		{sim.RunSpec{Workload: "deepsjeng", Policy: core.PolicyAtCommit, SQSize: 14, Insts: 100_000,
			WarmupInsts: 5_000, Sampling: sim.SamplingConfig{IntervalInsts: 20_000, DetailedInsts: 2_000, WarmInsts: 5_000}},
			"3da37a08fd5fa9909d92e319f67509e8d80bbadf946a80c2f41bb9f12496cce3"},
		{sim.RunSpec{Workload: "canneal", Policy: core.PolicySPB, SQSize: 14, Cores: 8, Insts: 20_000},
			"e17fa5804f41422650322f2876c76c00a654bb0f1fed9f65250fdf3f06541754"},
	}
	for _, g := range golden {
		if got := Key(g.spec); got != g.key {
			t.Errorf("Key(%+v) = %s, want %s", g.spec, got, g.key)
		}
	}
	// And the same call twice in this process must agree with itself.
	for _, g := range golden {
		if Key(g.spec) != Key(g.spec) {
			t.Errorf("Key(%+v) is not deterministic within a process", g.spec)
		}
	}
}

// TestKeyDistinguishesSpecs checks that every identifying field feeds the
// hash: flipping any one of them must change the key.
func TestKeyDistinguishesSpecs(t *testing.T) {
	base := sim.RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14}
	variants := []sim.RunSpec{
		{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14},
		{Workload: "bwaves", Policy: core.PolicyAtCommit, SQSize: 14},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 56},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 100},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, WarmupInsts: 5_000},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Seed: 2},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, WindowN: 32},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Cores: 2},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, DynamicSPB: true},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, CoalesceSB: true},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, BackwardBursts: true},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, CrossPageBursts: true},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, CoreName: "SLM"},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Prefetcher: config.PrefetchAdaptive},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Prefetcher: config.PrefetchNone},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Prefetcher: config.PrefetchBOP},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Prefetcher: config.PrefetchDSPatch},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Prefetcher: config.PrefetchHybrid},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
			Sampling: sim.SamplingConfig{IntervalInsts: 100_000}},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
			Sampling: sim.SamplingConfig{IntervalInsts: 100_000, DetailedInsts: 5_000}},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
			Sampling: sim.SamplingConfig{IntervalInsts: 100_000, DetailedInsts: 5_000, WarmInsts: 20_000}},
		{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
			Sampling: sim.SamplingConfig{IntervalInsts: 100_000, DetailedInsts: 5_000, WarmInsts: 20_000, HistoryInsts: 50_000}},
	}
	baseKey := Key(base)
	seen := map[string]int{baseKey: -1}
	for i, v := range variants {
		k := Key(v)
		if k == baseKey {
			t.Errorf("variant %d (%+v) collides with base", i, v)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variants %d and %d collide", prev, i)
		}
		seen[k] = i
	}
}
