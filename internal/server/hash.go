package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"spb/internal/sim"
)

// keyVersion is baked into every content address. Bump it whenever the
// simulator's statistics change meaning (a new counter, a model fix) or the
// spec gains a field, so stale disk-cache entries miss instead of serving
// results the current binary would not produce. v2: WarmupInsts joined the
// spec (a warmed run's statistics differ from a cold run's). v3: SMARTS
// sampling joined the spec (a sampled run's statistics are estimates over
// measured windows, not full-run totals). v4: the FDP decision tree was
// fixed to hold the level on accurate/timely/clean epochs (Srinath et al.,
// Table 2), changing adaptive-prefetcher statistics.
const keyVersion = "spb-runspec-v4"

// Key returns the content address of a simulation point: a hex SHA-256 over
// an explicit, field-by-field rendering of the normalized spec. Two specs
// that differ only in defaulted fields (Cores 0 vs 1, Seed 0 vs 1, ...)
// share a key, and the encoding uses no map iteration, pointer values, or
// other process-varying input, so keys are stable across restarts — the
// property the on-disk cache depends on. The literals bpred=false and
// noff=false are the branch-predictor and fast-forward knobs the spec no
// longer has, kept so no key moves.
func Key(spec sim.RunSpec) string {
	n := spec.Normalized()
	h := sha256.New()
	// %q on strings keeps workload/core names unambiguous (a name could
	// otherwise collide with a separator); enums render as their stable
	// String() names.
	fmt.Fprintf(h,
		"%s|workload=%q|policy=%s|sq=%d|pf=%s|core=%q|cores=%d|insts=%d|warm=%d|win=%d|dyn=%t|coalesce=%t|backward=%t|xpage=%t|bpred=false|noff=false|smp=%d/%d/%d/%d|seed=%d",
		keyVersion, n.Workload, n.Policy, n.SQSize, n.Prefetcher, n.CoreName,
		n.Cores, n.Insts, n.WarmupInsts, n.WindowN, n.DynamicSPB, n.CoalesceSB,
		n.BackwardBursts, n.CrossPageBursts,
		n.Sampling.IntervalInsts, n.Sampling.DetailedInsts, n.Sampling.WarmInsts,
		n.Sampling.HistoryInsts, n.Seed)
	return hex.EncodeToString(h.Sum(nil))
}
