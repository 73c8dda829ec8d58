package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spb/internal/config"
	"spb/internal/core"
)

// The checkpoint form (DESIGN.md §12): a unit's Snapshot is its serialized
// form. Nothing stands between the structs and encoding/gob — no mirror type,
// no Gob method — so the two tests below are what keeps a field from being
// declared where gob cannot see it, and a file from differing from the value
// it was written from.

// ckptForms pins the fingerprint of each checkpoint version's form: the
// SHA-256 of the sorted "type.field type" lines of every stored field
// TestCkptFormIsPlainStructs meets. gob matches fields by name and zeroes the
// ones a file lacks, so a form that changed under an unchanged ckptVersion
// would decode an older file into the new structs with fields silently zero.
var ckptForms = map[uint32]string{
	6: "67dd80200c81698a589c176dee91c5932baa52563fa639aedacbe3939b247845",
	7: "e945063f9f694833882544e4b447769defc08031538b08deef71bf1e41bd22a1",
	8: "55210b296954912e8702ab282d95c970545e81fbc6e66080fe30a92b5eec770b",
}

// TestCkptFormIsPlainStructs walks every type reachable from ckptFile: every
// struct field is exported, so gob carries it, and no type brings an encoding
// of its own, so what gob carries is the struct as declared. A field gob would
// silently skip must be listed here with its reason. The stored fields, as a
// fingerprint, must be the form ckptForms pins for ckptVersion.
func TestCkptFormIsPlainStructs(t *testing.T) {
	notStored := map[string]string{
		"sim.machineState.progs": "stream cursors are replayed from Consumed, not stored",
	}
	seen := map[reflect.Type]bool{}
	structs := 0
	var form []string
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		// gob hands a value to its own methods when it has them: the Gob pair
		// of encoding/gob's interfaces, or encoding's Binary pair.
		for ptr, i := reflect.PointerTo(typ), 0; i < ptr.NumMethod(); i++ {
			if name := ptr.Method(i).Name; strings.HasPrefix(name, "Gob") || strings.HasSuffix(name, "Binary") {
				t.Errorf("%s: %v has method %s: a second serialized form", path, typ, name)
			}
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path)
			walk(typ.Elem(), path)
		case reflect.Struct:
			structs++
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name := typ.String() + "." + f.Name
				if f.IsExported() {
					form = append(form, name+" "+f.Type.String())
					walk(f.Type, name)
				} else if _, ok := notStored[name]; ok {
					delete(notStored, name)
				} else {
					t.Errorf("%s is unexported: gob drops it from every checkpoint", name)
				}
			}
		case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s: gob cannot encode a %v as it stands", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(ckptFile{}), "ckptFile")
	for name := range notStored {
		t.Errorf("%s is listed as not stored but the walk did not meet it", name)
	}
	// ckptFile, cursor, machineState, window, every unit's snapshot and the
	// element types they carry: a walk that stopped short proves nothing.
	if structs < 25 {
		t.Errorf("the walk met only %d struct types", structs)
	}
	slices.Sort(form)
	sum := sha256.Sum256([]byte(strings.Join(form, "\n")))
	if got := hex.EncodeToString(sum[:]); got != ckptForms[ckptVersion] {
		t.Errorf("the checkpoint form is %s, version %d pins %q: bump ckptVersion and re-pin\n%s",
			got, ckptVersion, ckptForms[ckptVersion], strings.Join(form, "\n"))
	}
}

// midSegmentCkpt runs spec, checkpointing at every mark, up to the first
// checkpoint inside a detailed segment — of several cores, the first that
// caught them at different clocks — and returns that file decoded together
// with the checkpoint a machine and cores restored from it write in turn: a
// value the Snapshot methods built, not a decoder.
func midSegmentCkpt(t *testing.T, spec RunSpec) (file, cf *ckptFile) {
	t.Helper()
	r := NewRunner()
	r.SetCheckpointPolicy(ckptTestPolicy(t.TempDir(), 1, func(path string) error {
		if got := readCkpt(t, path); got.Cores != nil && (len(got.Cores) == 1 || coresApart(got)) {
			file = got
			return errCrash
		}
		return nil
	}))
	if _, err := r.Get(spec); !errors.Is(err, errCrash) {
		t.Fatalf("no such checkpoint was written (run ended with %v)", err)
	}

	m, err := newMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.release()
	if err := m.restore(file.State); err != nil {
		t.Fatal(err)
	}
	cores, lims := m.buildCores(planOf(t, spec)[file.Cur.Seg].n)
	defer func() {
		for _, c := range cores {
			c.Release()
		}
	}()
	if err := file.fitsCores(cores); err != nil {
		t.Fatal(err)
	}
	cf = &ckptFile{Spec: spec, Cur: file.Cur, State: m.state(), Win: file.Win}
	// The stream cursors are replayed from Consumed, not stored.
	cf.State.progs = nil
	for i, c := range cores {
		c.Restore(file.Cores[i])
		lims[i].SetSeen(file.Seen[i])
		cf.Cores = append(cf.Cores, c.Snapshot())
		cf.Seen = append(cf.Seen, lims[i].Seen())
	}
	return file, cf
}

// TestCkptRoundTripIsIdentity: a mid-segment checkpoint — machine, trained
// prefetchers, cores, window — comes back from encodeCkpt and decodeCkpt
// reflect.DeepEqual to the value that went in, with no normalising pass
// (Snapshot stores an empty list as nil, which is how gob returns it), and a
// machine restored from a file snapshots back to that file. Every prefetcher
// kind, one core and eight at different clocks, the modelled predictor on and
// off, a sampled plan; and a cold machine, whose caches hold no line at all.
func TestCkptRoundTripIsIdentity(t *testing.T) {
	cases := map[string]RunSpec{
		"bpred":     {Workload: "mcf", Policy: core.PolicySPB, SQSize: 14, Insts: 12_000, WarmupInsts: 2_000, ModelBranchPredictor: true},
		"canneal/8": {Workload: "canneal", Cores: 8, Policy: core.PolicySPB, SQSize: 14, Insts: 30_000},
		"sampled":   planSpecs()["sampled/long"],
	}
	for _, k := range config.Prefetchers {
		cases["prefetcher/"+k.String()] = RunSpec{Workload: "mcf", Policy: core.PolicyAtCommit, SQSize: 14, Prefetcher: k, Insts: 12_000, WarmupInsts: 2_000}
	}
	for name, spec := range cases {
		spec := spec.Normalized()
		t.Run(name, func(t *testing.T) {
			file, cf := midSegmentCkpt(t, spec)
			data, err := encodeCkpt(cf)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeCkpt(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, cf) {
				t.Errorf("decodeCkpt(encodeCkpt(cf)) differs from cf%s", firstDiff(reflect.ValueOf(back), reflect.ValueOf(cf), "cf"))
			}
			if !reflect.DeepEqual(cf, file) {
				t.Errorf("a machine restored from a file snapshots to another value%s", firstDiff(reflect.ValueOf(cf), reflect.ValueOf(file), "cf"))
			}
		})
	}
	// A machine nothing has run on: no cache holds a line, and a snapshot's
	// empty Records must be the value gob hands back.
	t.Run("cold", func(t *testing.T) {
		spec := cases["bpred"].Normalized()
		state := func(from *machineState) *machineState {
			m, err := newMachine(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer m.release()
			if from != nil {
				if err := m.restore(from); err != nil {
					t.Fatal(err)
				}
			}
			st := m.state()
			st.progs = nil
			return st
		}
		cf := &ckptFile{Spec: spec, State: state(nil)}
		if n := len(cf.State.Sys.L3.Records) + len(cf.State.Sys.Ports[0].L1.Records) + len(cf.State.Sys.Ports[0].L2.Records); n != 0 {
			t.Fatalf("a cold machine's snapshot holds %d bytes of cache records", n)
		}
		data, err := encodeCkpt(cf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeCkpt(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, cf) {
			t.Errorf("decodeCkpt(encodeCkpt(cf)) differs from cf%s", firstDiff(reflect.ValueOf(back), reflect.ValueOf(cf), "cf"))
		}
		if again := state(back.State); !reflect.DeepEqual(again, cf.State) {
			t.Errorf("a cold machine restored from a file snapshots to another value%s", firstDiff(reflect.ValueOf(again), reflect.ValueOf(cf.State), "State"))
		}
	})
}

// firstDiff names the first place two values of one type differ, for the
// failure message: DeepEqual alone says only that megabytes of state do.
func firstDiff(a, b reflect.Value, path string) string {
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return ""
	}
	switch a.Kind() {
	case reflect.Pointer:
		if !a.IsNil() && !b.IsNil() {
			return firstDiff(a.Elem(), b.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				if d := firstDiff(a.Field(i), b.Field(i), path+"."+f.Name); d != "" {
					return d
				}
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() == b.Len() && (a.Kind() == reflect.Array || a.IsNil() == b.IsNil()) {
			for i := 0; i < a.Len(); i++ {
				if d := firstDiff(a.Index(i), b.Index(i), path); d != "" {
					return d
				}
			}
		}
	}
	return ": at " + path
}
