package server

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"

	"spb/internal/cluster"
)

// TestMetricsSurfaceGolden pins the /metrics surface — every family's name,
// type and help text — of a daemon with tenants and a cluster node attached.
// The hash is what
//
//	spbd -addr 127.0.0.1:0 -cluster-advertise auto -tenants 'a:ka:weight=3;b:kb'
//	curl /metrics | grep '^# \(HELP\|TYPE\)' | LC_ALL=C sort | sha256sum
//
// printed for the build before the renderers became one (PR 20); a family
// that is renamed, retyped, reworded, dropped or added moves it.
func TestMetricsSurfaceGolden(t *testing.T) {
	const golden = "218cceb099e255046e4eddf91fb21a08019a6058d0e5c386eb40ade60a46f21a"
	tenants, err := ParseTenants("a:ka:weight=3;b:kb")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Workers: 1, Tenants: tenants})
	attachNode(t, s, ts, cluster.Config{ID: "n", Epoch: 1})

	var surface []string
	types := map[string]int{}
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			surface = append(surface, line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			surface = append(surface, line)
			types[line[strings.LastIndexByte(line, ' ')+1:]]++
		}
	}
	sort.Strings(surface)
	sum := sha256.Sum256([]byte(strings.Join(surface, "\n") + "\n"))
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("metrics surface hash = %s, want %s\n%s", got, golden, strings.Join(surface, "\n"))
	}
	if len(surface) != 118 || types["counter"] != 45 || types["gauge"] != 8 || types["histogram"] != 6 {
		t.Errorf("surface has %d HELP/TYPE lines (%v), want 118: 45 counters, 8 gauges, 6 histograms", len(surface), types)
	}
}
