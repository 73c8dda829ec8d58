package obs

import (
	"math"
	"time"
)

// NearestRank returns the 0-based index of the p-quantile of n ascending
// samples under the nearest-rank definition: index = ceil(p·n) - 1. Unlike
// the floor-index formula int(p·(n-1)) it never under-reports the tail on
// small samples — the p99 of 50 samples is the 50th order statistic (index
// 49), not the 49th (index 48). p is clamped to (0, 1]; n <= 0 returns 0.
func NearestRank(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// PercentileDuration returns the nearest-rank p-quantile of sorted (a slice
// of durations in ascending order), for the client pool's hedge-delay
// estimate; it and every other percentile in the repo go through
// NearestRank, so the tail math cannot drift between tools again. An empty
// slice returns 0.
func PercentileDuration(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[NearestRank(len(sorted), p)]
}
