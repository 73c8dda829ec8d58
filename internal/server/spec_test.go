package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRunRequest fuzzes the decoder every submission crosses: bytes from
// the network, through the handlers' strict decoder into a RunRequest, then
// Spec. Spec never panics; a spec it accepts validates, has a cost estimate,
// and comes back from its wire form (Request), and from that form marshalled
// and decoded again, under the same content address. The seeds are the spec
// literals of server_test.go, including the bodies it expects refused.
func FuzzRunRequest(f *testing.F) {
	explicit := smallSpec
	explicit.Cores, explicit.WindowN, explicit.Seed = 1, 48, 1
	for _, req := range []RunRequest{
		smallSpec, longSpec, explicit,
		{Workload: "no-such-workload", SB: 14, Insts: 1000},
		{Workload: "bwaves", Policy: "spb", SB: 14, Insts: 10_000, Prefetcher: "bop"},
		{Workload: "bwaves", Policy: "spb", SB: 14, Insts: 10_000, Prefetcher: "dspatch"},
		{Workload: "bwaves", Policy: "spb", SB: 14, Insts: 10_000, Prefetcher: "hybrid"},
		{Workload: "canneal", SB: 14, Cores: 8, Insts: 1000, Warmup: 500},
		{Workload: "bwaves", Policy: "spb", SB: 14, Insts: 2_000_000,
			SampleInterval: 250000, SampleDetail: 8000, SampleWarm: 12000, SampleHistory: 100000},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		`{"policy":"spb"}`,
		`{"workload":"bwaves","policy":"bogus"}`,
		`{"workload":"bwaves","prefetcher":"?"}`,
		`{"workload":"bwaves","prefetcher":"markov"}`,
		`not json`,
		`{"workload":"canneal","sb":14,"cores":65,"insts":1000}`,
		`{"workload":"canneal","sb":14,"cores":-1,"insts":1000}`,
	} {
		f.Add([]byte(body))
	}
	for _, body := range append(noMachineBodies, strictBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if decodeStrict(bytes.NewReader(data), &req) != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Spec accepted %s, which does not validate: %v", data, err)
		}
		spec.CostEstimate()
		back, err := Request(spec).Spec()
		if err != nil {
			t.Fatalf("the wire form of accepted %s is refused: %v", data, err)
		}
		if Key(back) != Key(spec) {
			t.Fatalf("%s changes content address through its wire form: %+v -> %+v", data, spec, back)
		}
		wire, err := json.Marshal(Request(spec))
		if err != nil {
			t.Fatal(err)
		}
		var again RunRequest
		if err := decodeStrict(bytes.NewReader(wire), &again); err != nil {
			t.Fatalf("the marshalled wire form %s of accepted %s is refused: %v", wire, data, err)
		}
		if back, err = again.Spec(); err != nil || Key(back) != Key(spec) {
			t.Fatalf("the marshalled wire form %s of accepted %s comes back as %+v, %v", wire, data, back, err)
		}
	})
}
