// Package prefetch implements the generic L1 data prefetchers of the paper's
// evaluation: the baseline stream/stride prefetcher of Table I and the
// aggressive and adaptive (feedback-directed, Srinath et al. HPCA 2007)
// schemes of §VI.D. These train on demand accesses — loads and stores alike —
// and fetch blocks for reading; unlike the store-prefetch policies they do
// not acquire write permission, which is exactly why they cannot remove
// store-buffer stalls.
package prefetch

import (
	"spb/internal/config"
	"spb/internal/mem"
)

// Event describes one demand L1 access, as observed by the prefetcher.
type Event struct {
	PC    uint64
	Block mem.Block
	Miss  bool
	Store bool
}

// Feedback carries the prefetch-outcome counters of the last epoch to an
// adaptive prefetcher (accuracy, lateness and pollution directing the
// aggressiveness, per feedback-directed prefetching).
type Feedback struct {
	Issued   uint64
	Used     uint64
	Late     uint64
	Polluted uint64
}

// Prefetcher is the interface the memory system drives.
type Prefetcher interface {
	// Name identifies the scheme in reports.
	Name() string
	// Observe digests one demand access and appends any block addresses to
	// prefetch onto out, returning the extended slice. Returned blocks
	// never cross the page of the triggering access.
	Observe(ev Event, out []mem.Block) []mem.Block
	// Epoch delivers outcome feedback; adaptive schemes retune their
	// aggressiveness here, others ignore it.
	Epoch(fb Feedback)
}

// New constructs the prefetcher selected by kind. Unknown kinds panic:
// config.MachineConfig.Validate rejects them on every decoded-input path
// (HTTP specs, journal replay) before a kind can reach this constructor,
// so a panic here means an internal caller skipped validation.
func New(kind config.PrefetcherKind) Prefetcher {
	switch kind {
	case config.PrefetchStream:
		return NewStream(2, 1)
	case config.PrefetchAggressive:
		// Srinath et al.'s "very aggressive" static configuration.
		return NewStream(32, 4)
	case config.PrefetchAdaptive:
		return NewAdaptive()
	case config.PrefetchNone:
		return nonePrefetcher{}
	case config.PrefetchBOP:
		return NewBOP()
	case config.PrefetchDSPatch:
		return NewDSPatch()
	case config.PrefetchHybrid:
		return NewHybrid()
	}
	panic("prefetch: unknown kind (caller bypassed config validation)")
}

type nonePrefetcher struct{}

func (nonePrefetcher) Name() string { return "none" }

// Observe implements Prefetcher. It must return out unchanged — not nil —
// to honor the append contract: the caller reuses the returned slice as its
// scratch buffer, and nilling it would discard the buffer every call.
func (nonePrefetcher) Observe(_ Event, out []mem.Block) []mem.Block { return out }

func (nonePrefetcher) Epoch(Feedback) {}

// streamEntry is one PC-indexed stride-detection slot.
type streamEntry struct {
	pc     uint64
	last   mem.Block
	stride int64
	conf   int8
	valid  bool
}

// Stream is a PC-indexed stride/stream prefetcher operating at block
// granularity: repeated accesses to the same block are ignored, a stable
// block stride trains confidence, and a confident entry prefetches `degree`
// blocks starting `distance` blocks ahead of the demand access.
type Stream struct {
	table    []streamEntry
	distance int64
	degree   int
}

// NewStream returns a stream prefetcher with the given lookahead distance
// (blocks ahead of the demand access) and degree (blocks per trigger).
func NewStream(distance, degree int) *Stream {
	if distance < 1 || degree < 0 {
		panic("prefetch: stream distance must be >=1 and degree >=0")
	}
	return &Stream{
		table:    make([]streamEntry, 64),
		distance: int64(distance),
		degree:   degree,
	}
}

// Name implements Prefetcher.
func (s *Stream) Name() string { return "stream" }

// SetAggressiveness retunes distance and degree (used by Adaptive).
func (s *Stream) SetAggressiveness(distance, degree int) {
	s.distance = int64(distance)
	s.degree = degree
}

// Observe implements Prefetcher.
func (s *Stream) Observe(ev Event, out []mem.Block) []mem.Block {
	h := (ev.PC >> 2) ^ (ev.PC >> 8) ^ (ev.PC >> 16)
	e := &s.table[h&uint64(len(s.table)-1)]
	if !e.valid || e.pc != ev.PC {
		*e = streamEntry{pc: ev.PC, last: ev.Block, valid: true}
		return out
	}
	delta := int64(ev.Block) - int64(e.last)
	if delta == 0 {
		// Same block (e.g. consecutive 8-byte accesses): no information.
		return out
	}
	if delta == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = delta
		e.conf = 0
	}
	e.last = ev.Block
	if e.conf < 2 || e.stride == 0 {
		return out
	}
	if e.stride == 1 {
		// Unit-stride streams (the common case): run `degree` blocks ahead
		// at `distance`, clamped so the window slides up to — but never
		// across — the page boundary, like hardware streamers do.
		last := int64(mem.LastBlockOfPage(ev.Block))
		first := int64(ev.Block) + s.distance
		if first+int64(s.degree)-1 > last {
			first = last - int64(s.degree) + 1
		}
		if first <= int64(ev.Block) {
			first = int64(ev.Block) + 1
		}
		for b := first; b < first+int64(s.degree) && b <= last; b++ {
			out = append(out, mem.Block(b))
		}
		return out
	}
	page := mem.PageOfBlock(ev.Block)
	for i := 0; i < s.degree; i++ {
		b := int64(ev.Block) + e.stride*(s.distance+int64(i))
		if b < 0 {
			break
		}
		blk := mem.Block(b)
		if mem.PageOfBlock(blk) != page {
			break // physical prefetchers cannot cross page boundaries
		}
		out = append(out, blk)
	}
	return out
}

// Epoch implements Prefetcher (static schemes ignore feedback).
func (s *Stream) Epoch(Feedback) {}

// Adaptive is feedback-directed prefetching (Srinath et al., HPCA 2007): a
// stream prefetcher whose (distance, degree) follow a 5-level aggressiveness
// ladder driven by measured accuracy, lateness and pollution.
type Adaptive struct {
	Stream
	level int
}

// aggressivenessLadder mirrors the FDP configuration table (Srinath et al.,
// Table 1: distance 4..64, degree 1..4).
var aggressivenessLadder = []struct{ distance, degree int }{
	{2, 1},  // level 1: very conservative
	{4, 1},  // level 2: conservative
	{8, 2},  // level 3: middle-of-the-road
	{16, 4}, // level 4: aggressive
	{32, 4}, // level 5: very aggressive
}

// FDP thresholds (accuracy high/low, lateness, pollution), as specified.
const (
	fdpAccHigh  = 0.75
	fdpAccLow   = 0.40
	fdpLateness = 0.10
	fdpPollute  = 0.05
)

// NewAdaptive returns an FDP prefetcher starting at the middle level.
func NewAdaptive() *Adaptive {
	a := &Adaptive{level: 3}
	a.table = make([]streamEntry, 64)
	a.apply()
	return a
}

// Name implements Prefetcher.
func (a *Adaptive) Name() string { return "adaptive" }

// Level reports the current aggressiveness level (1..5), for tests.
func (a *Adaptive) Level() int { return a.level }

func (a *Adaptive) apply() {
	cfg := aggressivenessLadder[a.level-1]
	a.SetAggressiveness(cfg.distance, cfg.degree)
}

// Epoch implements Prefetcher: the FDP decision tree. High accuracy with
// late prefetches asks for more aggressiveness; low accuracy or pollution
// throttles down; accurate, timely and clean holds the level steady
// (Srinath et al., Table 2 — the current aggressiveness is already paying
// off, so ramping further would only risk pollution).
func (a *Adaptive) Epoch(fb Feedback) {
	if fb.Issued == 0 {
		return
	}
	acc := float64(fb.Used) / float64(fb.Issued)
	late := 0.0
	if fb.Used > 0 {
		late = float64(fb.Late) / float64(fb.Used)
	}
	pol := float64(fb.Polluted) / float64(fb.Issued)
	switch {
	case acc >= fdpAccHigh && late > fdpLateness && a.level < 5:
		a.level++
	case acc < fdpAccLow && a.level > 1:
		a.level--
	case pol > fdpPollute && a.level > 1:
		a.level--
	}
	a.apply()
}
