package config

import "testing"

func TestSkylakeMatchesTableI(t *testing.T) {
	m := Skylake()
	c := m.Core
	if c.Width != 4 {
		t.Errorf("width = %d, want 4", c.Width)
	}
	if c.ROBSize != 224 || c.IQSize != 97 || c.LQSize != 72 || c.SQSize != 56 {
		t.Errorf("ROB/IQ/LQ/SQ = %d/%d/%d/%d, want 224/97/72/56",
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize)
	}
	if c.IntAddLat != 1 || c.IntMulLat != 4 || c.IntDivLat != 22 {
		t.Errorf("int latencies = %d/%d/%d, want 1/4/22",
			c.IntAddLat, c.IntMulLat, c.IntDivLat)
	}
	if c.FPAddLat != 5 || c.FPMulLat != 5 || c.FPDivLat != 22 {
		t.Errorf("fp latencies = %d/%d/%d, want 5/5/22",
			c.FPAddLat, c.FPMulLat, c.FPDivLat)
	}
	if m.L1D.SizeBytes != 32<<10 || m.L1D.Ways != 8 || m.L1D.LatencyCyc != 4 {
		t.Errorf("L1D = %+v, want 32KB/8-way/4cyc", m.L1D)
	}
	if m.L2.SizeBytes != 1<<20 || m.L2.Ways != 16 || m.L2.LatencyCyc != 14 {
		t.Errorf("L2 = %+v, want 1MB/16-way/14cyc", m.L2)
	}
	if m.L3.SizeBytes != 16<<20 || m.L3.Ways != 16 || m.L3.LatencyCyc != 36 {
		t.Errorf("L3 = %+v, want 16MB/16-way/36cyc", m.L3)
	}
	if m.L1D.MSHRs != 64 {
		t.Errorf("MSHRs = %d, want 64", m.L1D.MSHRs)
	}
	if m.SPB.WindowN != 48 {
		t.Errorf("SPB window = %d, want 48 (paper §IV.C)", m.SPB.WindowN)
	}
}

func TestSkylakeValidates(t *testing.T) {
	if err := Skylake().Validate(); err != nil {
		t.Fatalf("Skylake config should validate: %v", err)
	}
}

func TestCoresMatchTableII(t *testing.T) {
	want := []struct {
		name                string
		rob, iq, lq, sq, wd int
	}{
		{"SLM", 32, 15, 10, 16, 4},
		{"NHL", 128, 32, 48, 36, 4},
		{"HSW", 192, 60, 72, 42, 8},
		{"SKL", 224, 97, 72, 56, 8},
		{"SNC", 352, 128, 128, 72, 8},
	}
	cores := Cores()
	if len(cores) != len(want) {
		t.Fatalf("Cores() returned %d configs, want %d", len(cores), len(want))
	}
	for i, w := range want {
		c := cores[i]
		if c.Name != w.name || c.ROBSize != w.rob || c.IQSize != w.iq ||
			c.LQSize != w.lq || c.SQSize != w.sq || c.Width != w.wd {
			t.Errorf("core %d = %s %d/%d/%d/%d w%d, want %s %d/%d/%d/%d w%d",
				i, c.Name, c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.Width,
				w.name, w.rob, w.iq, w.lq, w.sq, w.wd)
		}
	}
}

func TestCoresValidate(t *testing.T) {
	for _, core := range Cores() {
		m := Skylake().WithCore(core)
		if err := m.Validate(); err != nil {
			t.Errorf("core %s should validate: %v", core.Name, err)
		}
	}
}

func TestWithSQ(t *testing.T) {
	m := Skylake()
	m2 := m.WithSQ(14)
	if m2.Core.SQSize != 14 {
		t.Errorf("WithSQ: got %d, want 14", m2.Core.SQSize)
	}
	if m.Core.SQSize != 56 {
		t.Error("WithSQ must not mutate the receiver")
	}
}

func TestWithPrefetcher(t *testing.T) {
	m := Skylake().WithPrefetcher(PrefetchAdaptive)
	if m.Prefetcher != PrefetchAdaptive {
		t.Error("WithPrefetcher did not apply")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MachineConfig)
	}{
		{"zero width", func(m *MachineConfig) { m.Core.Width = 0 }},
		{"zero ROB", func(m *MachineConfig) { m.Core.ROBSize = 0 }},
		{"zero SQ", func(m *MachineConfig) { m.Core.SQSize = 0 }},
		{"bad cache size", func(m *MachineConfig) { m.L1D.SizeBytes = 1000 }},
		{"zero MSHRs", func(m *MachineConfig) { m.L2.MSHRs = 0 }},
		{"32-way L3", func(m *MachineConfig) { m.L3.Ways = 32 }},
		{"32-way TLB", func(m *MachineConfig) { m.TLB.Entries, m.TLB.Ways = 128, 32 }},
		{"zero DRAM latency", func(m *MachineConfig) { m.DRAM.LatencyCyc = 0 }},
		{"tiny SPB window", func(m *MachineConfig) { m.SPB.WindowN = 4 }},
	}
	for _, c := range cases {
		m := Skylake()
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
}

func TestCacheSets(t *testing.T) {
	m := Skylake()
	if m.L1D.Sets() != 64 {
		t.Errorf("L1D sets = %d, want 64", m.L1D.Sets())
	}
	if m.L2.Sets() != 1024 {
		t.Errorf("L2 sets = %d, want 1024", m.L2.Sets())
	}
	if m.L3.Sets() != 16384 {
		t.Errorf("L3 sets = %d, want 16384", m.L3.Sets())
	}
}

func TestPrefetcherKindString(t *testing.T) {
	for k, want := range map[PrefetcherKind]string{
		PrefetchStream:     "stream",
		PrefetchAggressive: "aggressive",
		PrefetchAdaptive:   "adaptive",
		PrefetchNone:       "none",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestStandardSQSizes(t *testing.T) {
	if len(StandardSQSizes) != 3 || StandardSQSizes[0] != 56 ||
		StandardSQSizes[1] != 28 || StandardSQSizes[2] != 14 {
		t.Fatalf("StandardSQSizes = %v, want [56 28 14]", StandardSQSizes)
	}
}
