package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{4096 * time.Nanosecond, 0},      // exactly the first upper bound
		{4097 * time.Nanosecond, 1},      // just over: next bucket
		{8192 * time.Nanosecond, 1},      // 2^13
		{time.Second, 30 - histMinShift}, // 1e9 ns <= 2^30
		{70 * time.Second, histBuckets},  // beyond 2^36 ns: overflow
		{-5 * time.Millisecond, 0},       // clamped
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		got := -1
		for i := range h.counts {
			if h.counts[i].Load() == 1 {
				got = i
			}
		}
		if got != c.want {
			t.Fatalf("Observe(%v) landed in bucket %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHistogramQuantileVsExact checks the log-bucket error bound against
// exact percentiles: for every p, exact <= estimate < 2·exact (one power-of-
// two bucket), on a deterministic heavy-tailed sample.
func TestHistogramQuantileVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]time.Duration, 5000)
	for i := range samples {
		// Log-uniform between ~10µs and ~10s: exercises many buckets.
		exp := 4 + rng.Float64()*6 // 10^4 .. 10^10 ns
		d := time.Duration(math.Pow(10, exp))
		samples[i] = d
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0.50, 0.90, 0.95, 0.99, 0.999} {
		exact := PercentileDuration(samples, p)
		est := h.Quantile(p)
		if est < exact {
			t.Fatalf("p%.3f: estimate %v < exact %v (upper bound must dominate)", p, est, exact)
		}
		if est >= 2*exact {
			t.Fatalf("p%.3f: estimate %v >= 2x exact %v (log2 bucket bound violated)", p, est, exact)
		}
	}
	if h.Count() != 5000 {
		t.Fatalf("Count = %d, want 5000", h.Count())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

func TestHistogramWriteProm(t *testing.T) {
	var h Histogram
	h.Observe(1 * time.Microsecond)  // bucket 0
	h.Observe(10 * time.Microsecond) // ~bucket 2
	h.Observe(2 * time.Minute)       // overflow

	var b strings.Builder
	h.WriteProm(&b, "spbd_test_seconds", "")
	out := b.String()
	for _, want := range []string{
		`spbd_test_seconds_bucket{le="4.096e-06"} 1`,
		`spbd_test_seconds_bucket{le="+Inf"} 3`,
		"spbd_test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm output missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	h.WriteProm(&b, "spbd_test_seconds", `endpoint="GET /x"`)
	if !strings.Contains(b.String(), `spbd_test_seconds_bucket{endpoint="GET /x",le="+Inf"} 3`) {
		t.Fatalf("labeled WriteProm malformed:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `spbd_test_seconds_count{endpoint="GET /x"} 3`) {
		t.Fatalf("labeled count malformed:\n%s", b.String())
	}

	// Cumulative counts must be monotonically non-decreasing.
	var cum []uint64
	var c uint64
	for i := 0; i <= histBuckets; i++ {
		c += h.counts[i].Load()
		cum = append(cum, c)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts decrease at %d", i)
		}
	}
}
