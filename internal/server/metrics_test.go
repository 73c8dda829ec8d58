package server

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"
)

// TestMetricsSurfaceGolden pins the /metrics surface — every family's name,
// type and help text — of a daemon with tenants. The hash is what
//
//	spbd -addr 127.0.0.1:0 -tenants 'a:ka;b:kb'
//	curl /metrics | grep '^# \(HELP\|TYPE\)' | LC_ALL=C sort | sha256sum
//
// prints; a family that is renamed, retyped, reworded, dropped or added
// moves it.
func TestMetricsSurfaceGolden(t *testing.T) {
	const golden = "0451be78384df769aadbf10d7da43ac6cf88e5e6e1daa29d175ee35e37268ee5"
	tenants, err := ParseTenants("a:ka;b:kb")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Workers: 1, Tenants: tenants})

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
	if len(surface) != 76 || types["counter"] != 28 || types["gauge"] != 4 || types["histogram"] != 6 {
		t.Errorf("surface has %d HELP/TYPE lines (%v), want 76: 28 counters, 4 gauges, 6 histograms", len(surface), types)
	}
}
