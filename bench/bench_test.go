package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks the catalogue against the contract's limits and against
// the BENCHMARK.json committed at the repository root.
func TestManifest(t *testing.T) {
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == lower {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v (regenerate with `bash bench/run.sh manifest > BENCHMARK.json`)", err)
	}
	var committed, built any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	fresh, _ := json.Marshal(m)
	_ = json.Unmarshal(fresh, &built)
	if !reflect.DeepEqual(committed, built) {
		t.Error("BENCHMARK.json differs from the catalogue in defs.go; regenerate it with `bash bench/run.sh manifest > BENCHMARK.json`")
	}
}

// checkMetrics asserts that a run emitted exactly the declared names, each a
// finite number.
func checkMetrics(t *testing.T, got map[string]float64, defs []metricDef, nonZero bool) {
	t.Helper()
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("metric %s = %v", d.Name, v)
		case nonZero && v == 0:
			t.Errorf("metric %s is 0", d.Name)
		}
	}
	for name := range got {
		if _, ok := findMetric(name); !ok {
			t.Errorf("metric %s emitted but not declared", name)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(defs))
	}
}

// TestSmoke runs every workload end to end and the traced path at 1/50 scale.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloadDefs {
		cfg := runConfig{workload: w.Name, seed: 3, seconds: 0.1, scale: 0.02, root: root}
		var o ops
		got, err := runEndToEnd(cfg, &o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d operations attempted, %d failed", w.Name, o.attempted, o.failed)
		}
		checkMetrics(t, got, endToEndDefs, true)
	}
	for _, name := range []string{"detail-membound", "svc-cold"} {
		cfg := runConfig{workload: name, seed: 3, seconds: 0.1, scale: 0.02, traced: true, root: root}
		var o ops
		got, err := runTraced(cfg, &o)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if o.failed != 0 {
			t.Errorf("%s traced: %d operations failed", name, o.failed)
		}
		checkMetrics(t, got, perLayerDefs, false)
		if _, err := os.Stat(root + "/bench/out/trace-" + name + ".ndjson"); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestCheckedRepliesCoverBasePoints: the replies retained for the byte
// comparison (every checkEvery-th) must visit every base point of the service
// workload within the minimum request count.
func TestCheckedRepliesCoverBasePoints(t *testing.T) {
	base := svcBase(1)
	seen := map[string]bool{}
	for i := 0; i < minColdReq; i += checkEvery {
		s := svcSpec(base, 1, measureFrom+i)
		seen[s.Workload+"/"+s.Policy.String()] = true
	}
	if len(seen) != len(base) {
		t.Errorf("checked replies cover %d of %d base points: %v", len(seen), len(base), seen)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{"req_p50_ms", "ms", lower, 0.10}
	thr := metricDef{"sim_mips", "Minst/s", higher, 0.08}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 100, 85, 115}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lat, steady, scaled(1.05), "ok"},
		{lat, steady, scaled(1.15), "regressed"},
		{lat, steady, scaled(0.5), "ok"},
		{thr, steady, scaled(0.95), "ok"},
		{thr, steady, scaled(0.90), "regressed"},
		{thr, steady, scaled(1.5), "ok"},
		{lat, noisy, noisy, "unresolved (spread wider than bound)"},
		{lat, noisy, scaled(0.5), "ok"}, // every run of B beats every run of A
	}
	for i, c := range cases {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(id, parent, from, to int) span {
		return span{ID: id, Parent: parent, Start: at(from), End: at(to), DurNS: int64(to-from) * 1e6}
	}
	// Children 2 and 3 overlap between 30 and 40 ms: covered once.
	spans := []span{mk(1, 0, 0, 100), mk(2, 1, 10, 40), mk(3, 1, 30, 60), mk(4, 2, 10, 20)}
	selfTimes(spans)
	for i, want := range []int64{50e6, 20e6, 30e6, 10e6} {
		if spans[i].SelfNS != want {
			t.Errorf("span %d: self %d ns, want %d", spans[i].ID, spans[i].SelfNS, want)
		}
	}
}
