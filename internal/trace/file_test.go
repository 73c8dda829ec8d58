package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"testing"

	"spb/internal/mem"
)

// memsetAndCompute is a Program of two phases: a memset of 512 bytes or a
// compute block of 50 instructions.
func memsetAndCompute(seed uint64, base mem.Addr) *Program {
	reg := NewMemRegion(base, 1<<20)
	return NewProgram(NewRNG(seed),
		Phase{Weight: 1, Leaves: []Leaf{{Op: OpMemset, Dst: reg, Bytes: 512, Size: 8, PC: PCLib}}},
		Phase{Weight: 1, Leaves: []Leaf{{Op: OpCompute, Compute: ComputeOptions{Count: 50, BrFrac: 0.3, MissRate: 0.1, PC: PCApp}}}},
	)
}

func TestTraceRoundTrip(t *testing.T) {
	original := Collect(memsetAndCompute(5, 0x1000000), 2000)

	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceReader(original), uint64(len(original)))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(original)) {
		t.Fatalf("wrote %d records, want %d", n, len(original))
	}

	fr, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.Remaining() != uint64(len(original)) {
		t.Fatalf("Remaining = %d, want %d", fr.Remaining(), len(original))
	}
	replayed := Collect(fr, len(original)+10)
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	if len(replayed) != len(original) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(original))
	}
	for i := range original {
		if original[i] != replayed[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, original[i], replayed[i])
		}
	}
}

func TestTraceWriteCapsAtMax(t *testing.T) {
	reg := NewMemRegion(0x2000000, 1<<20)
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, onePhase(NewRNG(1), Leaf{Op: OpMemset, Dst: reg, Bytes: 512, Size: 8, PC: PCLib}), 100)
	if err != nil || n != 100 {
		t.Fatalf("wrote %d (err %v), want 100", n, err)
	}
	fr, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if got := len(Collect(fr, 1000)); got != 100 {
		t.Fatalf("replayed %d, want 100", got)
	}
}

func TestOpenTraceRejectsGarbage(t *testing.T) {
	if _, err := OpenTrace(bytes.NewReader([]byte("not a gzip stream"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("garbage input error = %v, want ErrBadTrace", err)
	}
}

func TestOpenTraceRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	// Valid gzip, wrong payload.
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("XXXX.........."))
	zw.Close()
	if _, err := OpenTrace(&buf); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("wrong magic error = %v, want ErrBadTrace", err)
	}
}

func TestTraceTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	reg := NewMemRegion(0x3000000, 1<<20)
	if _, err := WriteTrace(&buf, onePhase(NewRNG(1), Leaf{Op: OpMemset, Dst: reg, Bytes: 256, Size: 8, PC: PCLib}), 32); err != nil {
		t.Fatal(err)
	}
	// Corrupt: truncate the gzip stream.
	cut := buf.Bytes()[:buf.Len()/2]
	fr, err := OpenTrace(bytes.NewReader(cut))
	if err != nil {
		// Truncation may already break the header; also acceptable.
		return
	}
	Collect(fr, 1000)
	if fr.Err() == nil {
		t.Fatal("truncated trace should surface an error")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, NewSliceReader(nil), 100); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	if fr.Next(&in) {
		t.Fatal("empty trace should produce nothing")
	}
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
}

// FuzzOpenTrace feeds the trace-file decoder arbitrary bytes: a real recorded
// trace, its halves, and the trace with single bytes changed inside the gzip
// payload. Nothing may panic, OpenTrace refuses only with ErrBadTrace, a
// reader never yields more records than its header announced nor a load or
// store outside 1–64 bytes, and one that stops short of them says why with
// ErrBadTrace.
func FuzzOpenTrace(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, memsetAndCompute(9, 0x4000000), 500); err != nil {
		f.Fatal(err)
	}
	file := buf.Bytes()
	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Add(file[len(file)/2:])
	// The gzip header is ten bytes and the trailer eight; between them lies
	// the deflate payload.
	for _, pos := range []int{10, 11, 24, len(file) / 3, len(file) / 2, len(file) - 9} {
		mutated := append([]byte{}, file...)
		mutated[pos] ^= 0x55
		f.Add(mutated)
	}
	// Intact streams whose one record names a kind that does not exist, or is
	// a store of 200 bytes, which the store buffer cannot model.
	for _, head := range [][]byte{{0xFF}, {byte(KindStore), 200}} {
		var bad bytes.Buffer
		zw := gzip.NewWriter(&bad)
		zw.Write(append([]byte(fileMagic+"\x01\x00\x00\x00"+"\x01\x00\x00\x00\x00\x00\x00\x00"), append(head, make([]byte, recordBytes-len(head))...)...))
		zw.Close()
		f.Add(bad.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := OpenTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("OpenTrace refused with %v, not ErrBadTrace", err)
			}
			return
		}
		defer fr.Close()
		announced := fr.Remaining()
		var in Inst
		got := uint64(0)
		for fr.Next(&in) {
			if got++; got > announced {
				t.Fatalf("reader yielded more than the %d records its header announced", announced)
			}
			if in.Kind.IsMem() && (in.Size == 0 || in.Size > mem.BlockSize) {
				t.Fatalf("reader yielded a %v of %d bytes: an access must be 1–%d", in.Kind, in.Size, mem.BlockSize)
			}
		}
		if got < announced && !errors.Is(fr.Err(), ErrBadTrace) {
			t.Fatalf("reader stopped after %d of %d records with Err() = %v, not ErrBadTrace", got, announced, fr.Err())
		}
		if got == announced && fr.Err() != nil {
			t.Fatalf("reader yielded every record and still reports %v", fr.Err())
		}
	})
}
