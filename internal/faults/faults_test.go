package faults

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"store.read",             // no kind/rate
		"store.read:explode:0.5", // unknown kind
		"store.read:error:1.5",   // rate out of range
		"store.read:error:x",     // rate not a number
		":error:0.5",             // empty site
		"a:delay:0.5",            // delay without duration
		"a:error:0.5:10ms",       // duration on non-delay
		"a:error:0.5:limit=x",    // bad limit
		"seed=nope;a:error:1",    // bad seed
		"seed=3",                 // seed but no clauses
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestParseEmptyDisables(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		in, err := Parse(spec)
		if err != nil || in != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, in, err)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector claims to be enabled")
	}
	if err := in.Err("x"); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
	in.Sleep("x", nil)
	data := []byte("payload")
	if got := in.Corrupt("x", data); !bytes.Equal(got, data) {
		t.Fatal("nil Corrupt changed data")
	}
	if in.Cut("x") {
		t.Fatal("nil Cut fired")
	}
	if in.Fires("x") != 0 {
		t.Fatal("nil Fires nonzero")
	}
}

func TestRateOneAlwaysRateZeroNever(t *testing.T) {
	in := MustParse("always:error:1;never:error:0")
	for i := 0; i < 100; i++ {
		if in.Err("always") == nil {
			t.Fatal("rate-1 rule did not fire")
		}
		if in.Err("never") != nil {
			t.Fatal("rate-0 rule fired")
		}
	}
	if in.Fires("always") != 100 || in.Fires("never") != 0 {
		t.Fatalf("fires = %d/%d, want 100/0", in.Fires("always"), in.Fires("never"))
	}
}

func TestInjectedErrorIdentifiable(t *testing.T) {
	in := MustParse("site:error:1")
	err := in.Err("site")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != "site" {
		t.Fatalf("Err = %v, want *InjectedError{site}", err)
	}
}

func TestAfterAndLimit(t *testing.T) {
	in := MustParse("a:error:1:limit=3:after=2")
	var fired int
	for i := 0; i < 10; i++ {
		if in.Err("a") != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired on hit %d despite after=2", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3 (limit)", fired)
	}
}

// TestDeterministicAcrossInjectors: two injectors built from the same spec
// produce identical fire sequences per site, and hitting unrelated sites in
// between does not perturb the sequence.
func TestDeterministicAcrossInjectors(t *testing.T) {
	const spec = "seed=42;a:error:0.37;b:cut:0.61"
	in1 := MustParse(spec)
	in2 := MustParse(spec)
	var seq1, seq2 []bool
	for i := 0; i < 300; i++ {
		seq1 = append(seq1, in1.Err("a") != nil)
	}
	for i := 0; i < 300; i++ {
		// Interleave unrelated traffic on in2; "a" must not notice.
		in2.Cut("b")
		seq2 = append(seq2, in2.Err("a") != nil)
		in2.Cut("b")
	}
	fired := 0
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("hit %d: decision differs across injectors (%v vs %v)", i, seq1[i], seq2[i])
		}
		if seq1[i] {
			fired++
		}
	}
	// 0.37 of 300 ≈ 111; accept a generous band, the point is it fired a lot.
	if fired < 60 || fired > 180 {
		t.Fatalf("rate-0.37 rule fired %d/300 times", fired)
	}
}

func TestSeedChangesPattern(t *testing.T) {
	in1 := MustParse("seed=1;a:error:0.5")
	in2 := MustParse("seed=2;a:error:0.5")
	same := true
	for i := 0; i < 64; i++ {
		if (in1.Err("a") != nil) != (in2.Err("a") != nil) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-hit patterns")
	}
}

func TestCorruptFlipsOneBitInACopy(t *testing.T) {
	in := MustParse("c:corrupt:1")
	orig := bytes.Repeat([]byte{0xAA}, 64)
	data := append([]byte(nil), orig...)
	got := in.Corrupt("c", data)
	if !bytes.Equal(data, orig) {
		t.Fatal("Corrupt modified the input slice")
	}
	if len(got) != len(orig) {
		t.Fatalf("length changed: %d -> %d", len(orig), len(got))
	}
	diffBits := 0
	for i := range got {
		x := got[i] ^ orig[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
	// Empty payloads pass through.
	if got := in.Corrupt("c", nil); got != nil {
		t.Fatal("Corrupt(nil) returned data")
	}
}

func TestSleepHonorsDoneChannel(t *testing.T) {
	in := MustParse("s:delay:1:10s")
	done := make(chan struct{})
	close(done)
	start := time.Now()
	in.Sleep("s", done)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Sleep ignored done channel (slept %v)", d)
	}
}

func TestConcurrentHitsRace(t *testing.T) {
	in := MustParse("p:error:0.5;p:cut:0.5;p:corrupt:0.5")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Err("p")
				in.Cut("p")
				in.Corrupt("p", []byte{1, 2, 3})
			}
		}()
	}
	wg.Wait()
}

func TestStringRoundTrips(t *testing.T) {
	in := MustParse("seed=9;a:delay:0.25:15ms;b:error:1:limit=2")
	s := in.String()
	if !strings.Contains(s, "seed=9") || !strings.Contains(s, "a:delay:0.25:15ms") || !strings.Contains(s, "b:error:1:limit=2") {
		t.Fatalf("String() = %q, missing clauses", s)
	}
	if _, err := Parse(s); err != nil {
		t.Fatalf("String() output does not re-parse: %v", err)
	}
}
