package sim

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"strings"
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

// TestStatsRoundTrip: for every golden point, ParseStats rebuilds from the
// run's canonical stats the very Result the run returned, every field of it,
// and that Result exports the same bytes again.
func TestStatsRoundTrip(t *testing.T) {
	for _, g := range goldenPoints {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(g.spec)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := res.StatsJSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseStats(g.spec, stats)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, res) {
				t.Fatalf("rebuilt result differs from the run's:\n  got  %+v\n  want %+v", back, res)
			}
			if again, _ := back.StatsJSON(); !bytes.Equal(again, stats) {
				t.Fatalf("rebuilt result exports other bytes:\n  got  %s\n  want %s", again, stats)
			}
		})
	}
}

// damagedStats returns copies of a run's canonical stats that no run can have
// exported: a derived counter out of line with the counters it is derived
// from, a counter missing, a name no table knows, a repeated name, another
// layout of the same JSON, and the sample.* set of the other kind of run.
func damagedStats(t testing.TB, stats []byte, sampled bool) map[string][]byte {
	var s map[string]uint64
	if err := json.Unmarshal(stats, &s); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(map[string]uint64)) []byte {
		c := maps.Clone(s)
		f(c)
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	indented, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{
		"td.cycles+1":        edit(func(c map[string]uint64) { c["td.cycles"]++ }),
		"spfNeverUsed+1":     edit(func(c map[string]uint64) { c["mem.spfNeverUsed"]++ }),
		"energy.totalUJ+1":   edit(func(c map[string]uint64) { c["energy.totalUJ"]++ }),
		"no cpu.cycles":      edit(func(c map[string]uint64) { delete(c, "cpu.cycles") }),
		"unknown counter":    edit(func(c map[string]uint64) { c["cpu.bogus"] = 0 }),
		"repeated name":      append([]byte(`{"cpu.cycles":0,`), stats[1:]...),
		"indented":           indented,
		"trailing space":     append(slices.Clone(stats), ' '),
		"not an object":      []byte(`[]`),
		"negative counter":   bytes.Replace(stats, []byte(`"cpu.cycles":`), []byte(`"cpu.cycles":-`), 1),
		"fractional counter": bytes.Replace(stats, []byte(`,"cpu.committed"`), []byte(`.5,"cpu.committed"`), 1),
	}
	if sampled {
		out["no sample.* set"] = edit(func(c map[string]uint64) {
			maps.DeleteFunc(c, func(k string, _ uint64) bool { return strings.HasPrefix(k, "sample.") })
		})
	} else {
		out["a sample.* set"] = edit(func(c map[string]uint64) {
			for _, sc := range sampleCounters {
				c[sc.name] = 0
			}
		})
	}
	return out
}

// TestParseStatsRefusesDamage: none of damagedStats' inputs decodes, for a
// full-detail and a sampled point.
func TestParseStatsRefusesDamage(t *testing.T) {
	for _, g := range goldenPoints {
		if g.name != "bwaves/spb" && g.name != "mcf/spb/sampled" {
			continue
		}
		res, err := Run(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := res.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		for name, bad := range damagedStats(t, stats, g.spec.Sampling.Enabled()) {
			if _, err := ParseStats(g.spec, bad); err == nil {
				t.Errorf("%s: ParseStats accepted stats with %s: %s", g.name, name, bad)
			}
		}
	}
}

// FuzzParseStats: whatever bytes it is given for whichever golden point's
// spec, ParseStats does not panic, and what it accepts is exactly what its
// result exports. Seeded with every golden point's stats and their damaged
// copies.
func FuzzParseStats(f *testing.F) {
	for i, g := range goldenPoints {
		res, err := Run(g.spec)
		if err != nil {
			f.Fatal(err)
		}
		stats, err := res.StatsJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), []byte(stats))
		for _, bad := range damagedStats(f, stats, g.spec.Sampling.Enabled()) {
			f.Add(uint8(i), bad)
		}
	}
	f.Fuzz(func(t *testing.T, point uint8, stats []byte) {
		spec := goldenPoints[int(point)%len(goldenPoints)].spec
		res, err := ParseStats(spec, stats)
		if err != nil {
			return
		}
		again, err := res.StatsJSON()
		if err != nil || !bytes.Equal(again, stats) {
			t.Fatalf("accepted stats that re-export as other bytes:\n  in  %s\n  out %s (%v)", stats, again, err)
		}
	})
}
