package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spb/internal/config"
	"spb/internal/core"
)

// goldenPoints pins results across commits: the SHA-256 of each point's
// canonical StatsJSON. The equivalence suites compare one path of a build
// with another path of the same build; this table compares a build with the
// one that recorded it, so an engine change that moves a statistic fails here
// even when every path moved together. The hashes were recorded from commit
// 57f8d81 (PR 13). A change that means to alter results re-records the table
// and says so; a change that does not must leave it alone.
var goldenPoints = []struct {
	name string
	spec RunSpec
	want string
}{
	{"bwaves/none", RunSpec{Workload: "bwaves", Policy: core.PolicyNone, SQSize: 14, Insts: 20_000},
		"f7f6c60c924a4e566774999ea4cc1f8e9f959396fa68b1c8a371185935251e42"},
	{"bwaves/at-execute", RunSpec{Workload: "bwaves", Policy: core.PolicyAtExecute, SQSize: 14, Insts: 20_000},
		"03406cb47c786a854c98f96c1b47981414694575ac8b124783633e2bf492077f"},
	{"bwaves/at-commit", RunSpec{Workload: "bwaves", Policy: core.PolicyAtCommit, SQSize: 14, Insts: 20_000},
		"0bb87a4a49906c77d17fc352cb9d7701a4561fcb81a4b0bcfebce2be552e5779"},
	{"bwaves/spb", RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 20_000},
		"6423bbf322fb5b5bd6f85d3eceb90579a381540f7793a6d519e7b266fa87da9b"},
	{"roms/spb/sb56", RunSpec{Workload: "roms", Policy: core.PolicySPB, SQSize: 56, Insts: 20_000},
		"43af2703a89f26a7738ffd8d9c6ecde1f717ab6e891ef3348f9fc7db0b41d5f7"},
	{"x264/ideal", RunSpec{Workload: "x264", Policy: core.PolicyIdeal, SQSize: 14, Insts: 20_000},
		"2461a3e7947018f9101cdf1c2eadc9a1860a2f4890a1ec825fd56ee3204848a2"},
	{"mcf/none/pf-none", RunSpec{Workload: "mcf", Policy: core.PolicyNone, SQSize: 14, Insts: 20_000,
		Prefetcher: config.PrefetchNone}, "a6af29c368ed4028ede2bc74ad1e28d45fe8272806079b406bf6b6b72ba781fb"},
	{"mcf/spb/pf-adaptive", RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 20_000,
		Prefetcher: config.PrefetchAdaptive}, "a6e6298ab620d08e56004e590ddee48dd93d58c6454c34cf0cf61145dfa5726e"},
	{"lbm/at-commit/pf-bop", RunSpec{Workload: "lbm", Policy: core.PolicyAtCommit, SQSize: 14, Insts: 20_000,
		Prefetcher: config.PrefetchBOP}, "95c9677674a6b2b957200f3f7de0371d261cd57f170eea7ee1bad05d6cc8c573"},
	{"fotonik3d/spb/pf-hybrid", RunSpec{Workload: "fotonik3d", Policy: core.PolicySPB, SQSize: 14, Insts: 20_000,
		Prefetcher: config.PrefetchHybrid}, "4cf02a17744c0ff426b1f0cf70bdc542e1f455bcebdf3d1f9e68d92a22d3046f"},
	{"cam4/spb/coalesce/SLM", RunSpec{Workload: "cam4", Policy: core.PolicySPB, SQSize: 14, Insts: 20_000,
		CoalesceSB: true, CoreName: "SLM"}, "de5fc99c27b3efa6b3b9e5fcec32fadbce40504f7d3fa307b7ec8a439f3efeef"},
	// The machine's TLB crosses segment edges: warmed into the detailed
	// segment, and carried from one sampled window to the next.
	{"omnetpp/spb/warm", RunSpec{Workload: "omnetpp", Policy: core.PolicySPB, SQSize: 14, Insts: 20_000,
		WarmupInsts: 30_000}, "cd42be0fbad1a914cc3d68a4925dd702ddb46236bc9de80724f1243049d62e3a"},
	{"mcf/spb/sampled", RunSpec{Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 100_000,
		WarmupInsts: 5_000,
		Sampling:    SamplingConfig{IntervalInsts: 20_000, DetailedInsts: 2_000, WarmInsts: 3_000}}, "02e3b4f812a1e6f2c2b59e70e8ae8c682805413492ae969cf5c203cd759b14aa"},
	{"canneal/spb/2", RunSpec{Workload: "canneal", Policy: core.PolicySPB, SQSize: 14, Cores: 2, Insts: 10_000},
		"96118afa148b773c3a8b7d0a03936a2eef5a4ee1cc127268be1d11c57c000ee6"},
	{"canneal/none/8", RunSpec{Workload: "canneal", Policy: core.PolicyNone, SQSize: 14, Cores: 8, Insts: 5_000},
		"217d5ef9de82c287d7077f504f001d7b30d746fe9fd27ccbc4b5d95419e96313"},
	{"dedup/at-commit/2", RunSpec{Workload: "dedup", Policy: core.PolicyAtCommit, SQSize: 14, Cores: 2, Insts: 10_000},
		"57f143a597fe64ee63669ffb991f50a4bded7771dc8079e7af00c00ca1d9b1e0"},
	{"dedup/spb/8", RunSpec{Workload: "dedup", Policy: core.PolicySPB, SQSize: 14, Cores: 8, Insts: 5_000},
		"ae003940713d324fbb8343c43c750979383377b6bee8877d114602a3d2eaa9e4"},
	{"streamcluster/at-execute/8", RunSpec{Workload: "streamcluster", Policy: core.PolicyAtExecute, SQSize: 56, Cores: 8, Insts: 5_000},
		"8fd063606b8462ee978409e4a5d40b179f2ec27990fa3c52452849b66244438b"},
	{"ferret/spb/4/warm", RunSpec{Workload: "ferret", Policy: core.PolicySPB, SQSize: 14, Cores: 4, Insts: 8_000,
		WarmupInsts: 8_000}, "bcbe9dbafd04401aad445c693e829d1f970adefba80afeb5679e6d50e4c9bb88"},
	{"fluidanimate/spb/4/sampled", RunSpec{Workload: "fluidanimate", Policy: core.PolicySPB, SQSize: 14, Cores: 4, Insts: 40_000,
		Sampling: SamplingConfig{IntervalInsts: 10_000, DetailedInsts: 1_500, WarmInsts: 1_500}}, "57141f28306a2c0665f41e2ffb9ee660412e5e4aa496f89b7881c082ac780194"},
}

// TestGoldenStatsHashes runs every golden point and compares the hash of its
// canonical stats with the recorded one.
func TestGoldenStatsHashes(t *testing.T) {
	for _, g := range goldenPoints {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(g.spec)
			if err != nil {
				t.Fatal(err)
			}
			data, err := res.StatsJSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != g.want {
				t.Errorf("stats hash %s, recorded %s", got, g.want)
			}
		})
	}
}
