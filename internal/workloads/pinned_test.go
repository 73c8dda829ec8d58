package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"spb/internal/trace"
)

// streamDigest is the sha256 of the first n instructions of each reader in
// turn, every instruction's eight fields in order, little-endian and packed.
func streamDigest(t *testing.T, n int, readers ...*trace.Program) string {
	h := sha256.New()
	for _, r := range readers {
		if err := binary.Write(h, binary.LittleEndian, trace.Collect(r, n)); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedStreams holds the digests of 300 000 instructions of every SPEC
// workload at seed 42 and of 120 000 instructions of each of four threads of
// every PARSEC workload at seed 7: the streams every result in the repository
// is measured on.
var pinnedStreams = map[string]string{
	"blender":         "555a3c75413759f9053eca73c545fa2f18bca0ad9b8e59f7c19f6b45e8fa4771",
	"bwaves":          "f4e016b269687a7b1e5753018e7ef589f650e3a9f715df9c9c49639e677e0e4a",
	"cactuBSSN":       "1cd2d521a0dc3450661531c04b939695128af805a365df8ef34e6c82d4c17711",
	"cam4":            "f79aed2d8f0d44aa80daafb741272cb8369d7249f22e0d06d169562f039b0b17",
	"deepsjeng":       "2992d04b048b537e43af41abad0c93bd311ad69168727daac0b9cea3ab2a7e10",
	"exchange2":       "12ac45ef48685a2f4a37546a000a4e119049dd6ed0611f79bd9a17e5872c6e85",
	"fotonik3d":       "ede4bd8a1dbd6a9374bc1d0b34cdf06e49943690d235eb5febefd9215b676a9f",
	"gcc":             "a8ffba326d74c5d41f85ac2af7da31148b44f178261e5b2c1e4c3011ae00104f",
	"imagick":         "9e1a5794bc5fcb09fb055db0a0eadd804b49ef83f6909a44f73332921e644e19",
	"lbm":             "f28fcf223d4794e21291e211697636932455ebdc7c44bbed3a49068e30504f1e",
	"leela":           "3458f2487a12e132723d32c92278be50c8cbd7e9e59f23d386a36d48d345f44b",
	"mcf":             "db89029c775809d435553803b42ee6d443228d0f371c1e5f931f22463d9093e1",
	"nab":             "ff66cd3ede6f2ca14718b0af31f8cd23abe93e9404f94bb62597ab6953c0c9e5",
	"namd":            "47bc50ebfc4763eb9113e9496ad2cda4278f6c397315129a8fb29b4edfa5297c",
	"omnetpp":         "76714bd09939e8d4b7c9081c5e52542aa12ad7eb3827a8ee8774808eee52228e",
	"parest":          "cad888ad62f4fdeaf3bb1d75f24c1e3794242fa53e7448e4f263127549abf8f0",
	"perlbench":       "84a4313a22cc4bf0bcea674d45646af968f029081f6fb8e90a27145e869548a6",
	"povray":          "9c606d60e2b43521184c7b8f00e5642c94011b2dcadc14ae12844d5768467110",
	"roms":            "cae71a5d3e1f4d65b2d04b483092e785818d0b94b834a764c436415d346f9508",
	"wrf":             "d3ba032050565973f49b621c2339e08d373af5ce1dd6e53f767ade458dfc4d7a",
	"x264":            "4881ea7384007794ea1866ddee2baefcd069258fd50261ce088f9224f3b063e8",
	"xalancbmk":       "b84727238ece9177e97207d0f675018d76688748a6f795b58f92d4ce47077478",
	"xz":              "4357f71807907e8cad50e07f486f4c10a8c93cb7d126f34e2aef751a90a69301",
	"blackscholes/4":  "3aea09b6c315d8574b2bf90c2735dc85cc6076c190d7e3cbf45457b96087a1c7",
	"bodytrack/4":     "eaef86a679da0232a417045befb88fe7a1408108cd8419940fa7b04d17a39477",
	"canneal/4":       "5e38c51d41336988d18d4f905b5e54602bdb091a8f88e423c0b1e3e0f6bc9b1a",
	"dedup/4":         "3854b305478810de4e0afa1e1812e3fe3916d4eea46cb058ef3da700b0b60db5",
	"facesim/4":       "c7664d27ece290135962e6cd7cb95bd61b8fb31cb3f3f5b4284d8d44cc088ca0",
	"ferret/4":        "885ccbf41e084076d204cab3cfc24293d7214ce90dd7b1bc569573216a68b96b",
	"fluidanimate/4":  "b4459be740db64aed188898c84b97e6fa1dc588097f4cd3b80d8e1792eaf951f",
	"streamcluster/4": "6cba39464bdc0feff6a669bd68f116b5f16520467ddc56eea5b843700aee9bc0",
	"swaptions/4":     "97d8d050453c902f15cce195f623979a24ca03473116c0e967bf472a319dca9e",
	"vips/4":          "5e44c84dc794d994c7a699d406f02c4e38968a7298b6cd8ee3a23245d24adca4",
	"x264/4":          "9bcf6c7b682c3217f99fe51c009468d21637abd7f78ea216dcfdd5ac8622d94a",
}

// TestWorkloadStreamsPinned holds every shipped workload's instruction stream
// to the digest recorded for it. A change to how a stream is written — its
// leaves, their phases, the Program that runs them — must leave these bytes
// alone; a change that means to move them re-records the table and says so.
func TestWorkloadStreamsPinned(t *testing.T) {
	check := func(name, got string) {
		if want := pinnedStreams[name]; got != want {
			t.Errorf("%s: stream digest %s, pinned %s", name, got, want)
		}
	}
	for _, w := range SPEC() {
		check(w.Name, streamDigest(t, 300_000, w.Build(42)))
	}
	for _, p := range PARSEC() {
		check(p.Name+"/4", streamDigest(t, 120_000, p.Build(7, 4)...))
	}
	if n := len(SPEC()) + len(PARSEC()); len(pinnedStreams) != n {
		t.Errorf("%d digests pinned for %d workloads", len(pinnedStreams), n)
	}
}
