package sim

import (
	"bytes"
	"reflect"
	"testing"

	"spb/internal/trace"
)

// planOf materializes a spec's segment sequence.
func planOf(t *testing.T, spec RunSpec) []segment {
	t.Helper()
	var segs []segment
	if err := spec.eachSegment(func(k uint64, seg segment) error {
		if k != uint64(len(segs)) {
			t.Fatalf("segment %d delivered with index %d", len(segs), k)
		}
		segs = append(segs, seg)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return segs
}

// planSpecs are the shapes a plan takes: full detail with and without a
// warm-up, sampled with every skipped instruction warmed and with a bounded
// history, a sampling period that does not divide the budget, one with no gap
// at all, and the core counts at the two ends.
func planSpecs() map[string]RunSpec {
	smp := SamplingConfig{IntervalInsts: 20_000, DetailedInsts: 2_000, WarmInsts: 3_000}
	hist := smp
	hist.HistoryInsts = 4_000
	return map[string]RunSpec{
		"full":            {Workload: "mcf", SQSize: 14, Insts: 40_000},
		"warmed":          {Workload: "mcf", SQSize: 14, Insts: 40_000, WarmupInsts: 10_000},
		"warmed/8":        {Workload: "canneal", Cores: 8, SQSize: 14, Insts: 6_000, WarmupInsts: 3_000},
		"sampled":         {Workload: "mcf", SQSize: 14, Insts: 100_000, Sampling: smp},
		"sampled/history": {Workload: "mcf", SQSize: 14, Insts: 100_000, WarmupInsts: 5_000, Sampling: hist},
		"sampled/long":    {Workload: "mcf", SQSize: 14, Insts: 150_000, WarmupInsts: 5_000, Sampling: SamplingConfig{IntervalInsts: 50_000, DetailedInsts: 8_000, WarmInsts: 12_000, HistoryInsts: 10_000}},
		"sampled/ragged":  {Workload: "mcf", SQSize: 14, Insts: 47_123, WarmupInsts: 1, Sampling: hist},
		"sampled/dense":   {Workload: "mcf", SQSize: 14, Insts: 30_000, Sampling: SamplingConfig{IntervalInsts: 10_000, DetailedInsts: 4_000, WarmInsts: 6_000}},
		"sampled/8":       {Workload: "dedup", Cores: 8, SQSize: 14, Insts: 24_000, WarmupInsts: 2_000, Sampling: SamplingConfig{IntervalInsts: 8_000, DetailedInsts: 1_000, WarmInsts: 1_000, HistoryInsts: 2_000}},
	}
}

// TestPlanCoversEveryInstructionOnce: a plan's segments cover exactly
// WarmupInsts + Insts instructions per core — laid end to end there is no gap
// and no overlap — the warm-up leads it, every sampling period contributes one
// detailed segment whose measured window lies inside it, a bounded history
// bounds every warmed gap, and the sequence is the same on every regeneration,
// entered at any cursor.
func TestPlanCoversEveryInstructionOnce(t *testing.T) {
	for name, spec := range planSpecs() {
		spec = spec.Normalized()
		t.Run(name, func(t *testing.T) {
			segs := planOf(t, spec)
			var total, detailed, windows uint64
			for k, seg := range segs {
				if seg.n == 0 {
					t.Errorf("segment %d is empty", k)
				}
				total += seg.n
				switch seg.kind {
				case segDetail:
					detailed += seg.n
					windows++
					if spec.Sampling.Enabled() && (seg.from > seg.to || seg.to != seg.n) {
						t.Errorf("segment %d: window [%d, %d) not inside its %d instructions", k, seg.from, seg.to, seg.n)
					}
				case segWarm:
					if (k == 0 && spec.WarmupInsts > 0) == seg.trainPF {
						t.Errorf("segment %d: trainPF = %v; only the warm-up prefix leaves the prefetchers alone", k, seg.trainPF)
					}
					if h := spec.Sampling.HistoryInsts; h > 0 && k > 0 && seg.n > h {
						t.Errorf("segment %d warms %d instructions past a history of %d", k, seg.n, h)
					}
				case segTouch:
					if spec.Sampling.HistoryInsts == 0 {
						t.Errorf("segment %d: a touch segment without a bounded history", k)
					}
				}
			}
			if want := spec.WarmupInsts + spec.Insts; total != want {
				t.Errorf("plan covers %d instructions per core, want %d", total, want)
			}
			if spec.WarmupInsts > 0 && (segs[0] != segment{kind: segWarm, n: spec.WarmupInsts}) {
				t.Errorf("segment 0 = %+v, want the warm-up prefix", segs[0])
			}
			if c := spec.Sampling; c.Enabled() {
				periods := (spec.Insts + c.IntervalInsts - 1) / c.IntervalInsts
				if windows != periods {
					t.Errorf("%d detailed segments for %d sampling periods", windows, periods)
				}
			} else if windows != 1 || detailed != spec.Insts {
				t.Errorf("full detail: %d detailed segments over %d instructions", windows, detailed)
			}
			// Entered at cursor k, the plan is the tail of itself.
			for k := range segs {
				var tail []segment
				_ = spec.eachSegment(func(i uint64, seg segment) error {
					if i >= uint64(k) {
						tail = append(tail, seg)
					}
					return nil
				})
				if !reflect.DeepEqual(tail, segs[k:]) {
					t.Fatalf("plan regenerated from cursor %d differs from the original's tail", k)
				}
			}
		})
	}
}

// TestRunProgramsIsRun: handed the streams a spec's workload builds,
// RunPrograms is Run, byte for byte, in every shape a plan takes; and so it is
// handed replays of those streams, each recorded to a trace file for as many
// instructions as the plan reads.
func TestRunProgramsIsRun(t *testing.T) {
	stats := func(t *testing.T, res Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for name, spec := range planSpecs() {
		t.Run(name, func(t *testing.T) {
			n := spec.Normalized()
			res, err := Run(spec)
			want := stats(t, res, err)
			progs, err := buildReaders(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err = RunPrograms(spec, progs)
			if got := stats(t, res, err); got != want {
				t.Fatalf("RunPrograms on the workload's streams:\n%s\nRun:\n%s", got, want)
			}
			progs, _ = buildReaders(n)
			for i, p := range progs {
				var buf bytes.Buffer
				if _, err := trace.WriteTrace(&buf, p, n.WarmupInsts+n.Insts); err != nil {
					t.Fatal(err)
				}
				recs, err := trace.OpenTrace(&buf)
				if err != nil {
					t.Fatal(err)
				}
				progs[i] = trace.NewProgram(trace.NewRNG(1), trace.Phase{Weight: 1, Leaves: []trace.Leaf{{Op: trace.OpReplay, Records: recs}}})
			}
			res, err = RunPrograms(spec, progs)
			if got := stats(t, res, err); got != want {
				t.Fatalf("RunPrograms on replays of the workload's streams:\n%s\nRun:\n%s", got, want)
			}
		})
	}
}

// TestCounterTablesCoverEveryField: every uint64 field of cpu.Stats,
// MemStats (the ones it embeds from memsys.PortCounters included) and
// SampleStats is named by its table exactly once, so no counter can silently
// drop out of window deltas, aggregation, the export or ParseStats.
func TestCounterTablesCoverEveryField(t *testing.T) {
	checkCounterTable(t, cpuCounters)
	checkCounterTable(t, memCounters)
	checkCounterTable(t, sampleCounters)
}

func checkCounterTable[T any](t *testing.T, tab []counter[T]) {
	t.Helper()
	var v T
	rv := reflect.ValueOf(&v).Elem()
	named := map[uintptr]int{}
	for _, c := range tab {
		named[uintptr(reflect.ValueOf(c.at(&v)).Pointer())]++
	}
	for _, f := range reflect.VisibleFields(rv.Type()) {
		if f.Anonymous && f.Type.Kind() == reflect.Struct {
			continue // an embedded struct's fields are walked as promoted ones
		}
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("%T.%s is a %s: the tables only carry uint64 counters", v, f.Name, f.Type)
			continue
		}
		at := rv.FieldByIndex(f.Index).Addr().Pointer()
		if n := named[at]; n != 1 {
			t.Errorf("%T.%s appears %d times in its counter table, want once", v, f.Name, n)
		}
		delete(named, at)
	}
	if len(named) != 0 {
		t.Errorf("%T: %d table entries point at no field", v, len(named))
	}
}
