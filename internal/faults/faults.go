// Package faults is a deterministic, seeded fault injector for resilience
// testing. Production code is instrumented with named injection *sites*
// ("store.read", "batch.stream", "run", ...); a fault spec —
// the spbd -faults flag, or a test's Parse — attaches rules to those sites
// that inject errors, latency, payload corruption, or connection cuts at a
// configured rate.
//
// Two properties make the injector usable as a test harness rather than a
// chaos monkey:
//
//   - Deterministic: whether the n-th hit of a rule fires is a pure function
//     of (seed, site, kind, n), computed by hashing, never by a shared RNG.
//     Two processes running the same spec see the same fire pattern per
//     site, and faults at one site never perturb the sequence at another —
//     goroutine interleaving across sites cannot change any decision.
//   - Zero-cost when disabled: every method is nil-safe, so production call
//     sites pass through a nil *Injector and pay one pointer comparison.
//
// Spec grammar (clauses separated by ';' or ','):
//
//	seed=N                               decision seed (default 1)
//	SITE:KIND:RATE[:DURATION][:limit=N][:after=N]
//
// KIND is one of "error" (return an injected error), "delay" (sleep
// DURATION), "corrupt" (flip one deterministic bit of a payload), or "cut"
// (abort a stream / connection). RATE is the per-hit fire probability in
// [0,1]. "after=N" skips the first N hits; "limit=N" caps total fires.
//
// Example:
//
//	spbd -faults 'seed=7;store.read:corrupt:0.5;batch.stream:cut:0.1;run:delay:0.3:20ms'
//
// Sites wired into the repo (see DESIGN.md §8.8):
//
//	submit         error   spbd job submission fails with a 503 + Retry-After
//	run            delay   worker stalls before executing a simulation
//	store.read     error   disk-cache read I/O failure
//	store.read     corrupt disk-cache entry bit-flipped after read
//	store.write    error   disk-cache write I/O failure
//	store.write    delay   slow disk on the persistence path
//	batch.stream   cut     /v1/batch NDJSON response killed mid-stream
//	batch.stream   delay   slow NDJSON streaming
package faults

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Kind classifies what a rule injects.
type Kind uint8

const (
	KindError Kind = iota
	KindDelay
	KindCorrupt
	KindCut
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	case KindCut:
		return "cut"
	}
	return fmt.Sprintf("kind(%d)", k)
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "error", "err":
		return KindError, nil
	case "delay":
		return KindDelay, nil
	case "corrupt":
		return KindCorrupt, nil
	case "cut":
		return KindCut, nil
	}
	return 0, fmt.Errorf("faults: unknown kind %q (want error|delay|corrupt|cut)", s)
}

// Rule is one parsed fault clause.
type Rule struct {
	Site  string
	Kind  Kind
	Rate  float64       // per-hit fire probability in [0,1]
	Wait  time.Duration // KindDelay: how long to sleep
	After uint64        // skip the first After hits
	Limit uint64        // cap on total fires; 0 = unlimited
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s:%s:%g", r.Site, r.Kind, r.Rate)
	if r.Kind == KindDelay {
		s += ":" + r.Wait.String()
	}
	if r.Limit > 0 {
		s += fmt.Sprintf(":limit=%d", r.Limit)
	}
	if r.After > 0 {
		s += fmt.Sprintf(":after=%d", r.After)
	}
	return s
}

// ruleState is a Rule plus its per-rule hit/fire counters. The hit counter
// orders concurrent hits; the decision for hit n depends only on
// (seed, site, kind, n), so the pattern is reproducible run to run.
type ruleState struct {
	Rule
	base  uint64 // hash(seed, site, kind): the decision stream's origin
	hits  atomic.Uint64
	fires atomic.Uint64
}

// Injector evaluates fault rules at named sites. A nil *Injector is valid
// and injects nothing.
type Injector struct {
	seed  uint64
	rules map[string][]*ruleState // keyed by site
}

// InjectedError marks errors produced by the injector, so tests and
// retry-classification logic can tell injected failures from real ones.
type InjectedError struct{ Site string }

func (e *InjectedError) Error() string { return "faults: injected error at " + e.Site }

// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func ruleBase(seed uint64, site string, kind Kind) uint64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	h.Write([]byte{0, byte(kind)})
	return mix(seed ^ h.Sum64())
}

// Parse builds an Injector from a spec string. An empty (or all-whitespace)
// spec returns (nil, nil): injection disabled.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{seed: 1, rules: make(map[string][]*ruleState)}
	var rules []Rule
	for _, clause := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			in.seed = seed
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: spec %q has no fault clauses", spec)
	}
	for _, r := range rules {
		in.rules[r.Site] = append(in.rules[r.Site], &ruleState{
			Rule: r,
			base: ruleBase(in.seed, r.Site, r.Kind),
		})
	}
	return in, nil
}

func parseClause(clause string) (Rule, error) {
	parts := strings.Split(clause, ":")
	if len(parts) < 3 {
		return Rule{}, fmt.Errorf("faults: bad clause %q (want site:kind:rate[:duration][:limit=N][:after=N])", clause)
	}
	kind, err := parseKind(strings.TrimSpace(parts[1]))
	if err != nil {
		return Rule{}, err
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || rate < 0 || rate > 1 {
		return Rule{}, fmt.Errorf("faults: bad rate %q in %q (want a probability in [0,1])", parts[2], clause)
	}
	r := Rule{Site: strings.TrimSpace(parts[0]), Kind: kind, Rate: rate}
	if r.Site == "" {
		return Rule{}, fmt.Errorf("faults: empty site in %q", clause)
	}
	for _, opt := range parts[3:] {
		opt = strings.TrimSpace(opt)
		switch {
		case strings.HasPrefix(opt, "limit="):
			n, err := strconv.ParseUint(opt[len("limit="):], 10, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("faults: bad %q in %q", opt, clause)
			}
			r.Limit = n
		case strings.HasPrefix(opt, "after="):
			n, err := strconv.ParseUint(opt[len("after="):], 10, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("faults: bad %q in %q", opt, clause)
			}
			r.After = n
		default:
			d, err := time.ParseDuration(opt)
			if err != nil {
				return Rule{}, fmt.Errorf("faults: bad option %q in %q", opt, clause)
			}
			if r.Kind != KindDelay {
				return Rule{}, fmt.Errorf("faults: duration %q on non-delay clause %q", opt, clause)
			}
			r.Wait = d
		}
	}
	if r.Kind == KindDelay && r.Wait <= 0 {
		return Rule{}, fmt.Errorf("faults: delay clause %q needs a duration (e.g. %s:delay:%g:10ms)", clause, r.Site, r.Rate)
	}
	return r, nil
}

// MustParse is Parse for hand-written test specs; it panics on error.
func MustParse(spec string) *Injector {
	in, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return in
}

// Enabled reports whether any rules are loaded.
func (in *Injector) Enabled() bool { return in != nil }

// String renders the loaded rules (for startup logging).
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	sites := make([]string, 0, len(in.rules))
	for s := range in.rules {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", in.seed)
	for _, s := range sites {
		for _, rs := range in.rules[s] {
			b.WriteByte(';')
			b.WriteString(rs.Rule.String())
		}
	}
	return b.String()
}

// decide evaluates hit number n of a rule: fire iff the hashed fraction for
// (base, n) is below Rate, subject to After/Limit.
func (rs *ruleState) decide() bool {
	n := rs.hits.Add(1) - 1
	if n < rs.After {
		return false
	}
	frac := float64(mix(rs.base+n)>>11) / float64(uint64(1)<<53)
	if frac >= rs.Rate {
		return false
	}
	if rs.Limit > 0 && rs.fires.Add(1) > rs.Limit {
		return false
	}
	if rs.Limit == 0 {
		rs.fires.Add(1)
	}
	return true
}

func (in *Injector) fire(site string, kind Kind) *ruleState {
	if in == nil {
		return nil
	}
	for _, rs := range in.rules[site] {
		if rs.Kind == kind && rs.decide() {
			return rs
		}
	}
	return nil
}

// Err evaluates the error rules at site, returning an *InjectedError when
// one fires and nil otherwise.
func (in *Injector) Err(site string) error {
	if in == nil {
		return nil
	}
	if in.fire(site, KindError) != nil {
		return &InjectedError{Site: site}
	}
	return nil
}

// Sleep evaluates the delay rules at site and blocks for the configured
// duration when one fires. done, when non-nil, aborts the sleep early
// (pass ctx.Done() so cancelled work does not linger in injected latency).
func (in *Injector) Sleep(site string, done <-chan struct{}) {
	if in == nil {
		return
	}
	rs := in.fire(site, KindDelay)
	if rs == nil {
		return
	}
	if done == nil {
		time.Sleep(rs.Wait)
		return
	}
	t := time.NewTimer(rs.Wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// Corrupt evaluates the corrupt rules at site; when one fires it returns a
// copy of data with one deterministically chosen bit flipped (the input is
// never modified). Otherwise it returns data unchanged. Empty payloads pass
// through.
func (in *Injector) Corrupt(site string, data []byte) []byte {
	if in == nil || len(data) == 0 {
		return data
	}
	rs := in.fire(site, KindCorrupt)
	if rs == nil {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	// Flip bit 1 of a deterministically chosen byte: for ASCII payloads
	// (JSON especially) that always changes meaning — whitespace turns into
	// a non-whitespace byte, letters and digits into different ones —
	// whereas a random bit could land on formatting a parser normalizes
	// away.
	idx := mix(rs.base^(rs.fires.Load()<<17)) % uint64(len(out))
	out[idx] ^= 0x02
	return out
}

// Cut evaluates the cut rules at site: true means the caller should abort
// the stream or connection it is servicing.
func (in *Injector) Cut(site string) bool {
	return in.fire(site, KindCut) != nil
}

// Fires reports how many times any rule at site has fired (tests and logs).
func (in *Injector) Fires(site string) uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for _, rs := range in.rules[site] {
		f := rs.fires.Load()
		if rs.Limit > 0 && f > rs.Limit {
			f = rs.Limit
		}
		n += f
	}
	return n
}
