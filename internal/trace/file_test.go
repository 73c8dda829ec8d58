package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"slices"
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

// decoded returns the records of the trace in buf.
func decoded(t testing.TB, buf *bytes.Buffer) []Inst {
	t.Helper()
	recs, err := OpenTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
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
	recs := decoded(t, &buf)
	if len(recs) != len(original) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(original))
	}
	// A replay leaf emits the records in order and, run again, from the top.
	got := Collect(onePhase(NewRNG(1), Leaf{Op: OpReplay, Records: recs}), len(original)+10)
	for i, want := range append(original, original[:10]...) {
		if got[i] != want {
			t.Fatalf("instruction %d replays as %+v, recorded %+v", i, got[i], want)
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
	if got := len(decoded(t, &buf)); got != 100 {
		t.Fatalf("decoded %d, want 100", got)
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
	// Corrupt: truncate the gzip stream. The header may survive; the records
	// it announces cannot, and the file is refused whole.
	if _, err := OpenTrace(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated trace error = %v, want ErrBadTrace", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, NewSliceReader(nil), 100); err != nil {
		t.Fatal(err)
	}
	if recs := decoded(t, &buf); len(recs) != 0 {
		t.Fatalf("empty trace decoded to %d records", len(recs))
	}
}

// traceFile is a trace whose header announces count records over body, a
// sequence of raw records.
func traceFile(count uint64, body []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(fileMagic + "\x01\x00\x00\x00"))
	binary.Write(zw, binary.LittleEndian, count)
	zw.Write(body)
	zw.Close()
	return buf.Bytes()
}

// FuzzOpenTrace feeds the trace-file decoder arbitrary bytes: a real recorded
// trace, its halves, the trace with single bytes changed inside the gzip
// payload, and headers that announce more records than follow. Nothing may
// panic, OpenTrace refuses only with ErrBadTrace, and what it accepts is
// exactly the records the header announced, each a load or store of 1–64 bytes
// if it is one, and written back by WriteTrace into a trace that decodes to
// the same records.
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
	// a store of 200 bytes, which the store buffer cannot model; and one good
	// record under a header that claims 1<<62, which must be refused before
	// anything is sized by it.
	for _, head := range [][]byte{{0xFF}, {byte(KindStore), 200}} {
		f.Add(traceFile(1, append(head, make([]byte, recordBytes-len(head))...)))
	}
	f.Add(traceFile(1<<62, append([]byte{byte(KindStore), 8}, make([]byte, recordBytes-2)...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := OpenTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("OpenTrace refused with %v, not ErrBadTrace", err)
			}
			return
		}
		zr, _ := gzip.NewReader(bytes.NewReader(data))
		var header [16]byte
		io.ReadFull(zr, header[:])
		if announced := binary.LittleEndian.Uint64(header[8:]); uint64(len(recs)) != announced {
			t.Fatalf("decoded %d records under a header that announced %d", len(recs), announced)
		}
		for _, in := range recs {
			if in.Kind.IsMem() && (in.Size == 0 || in.Size > mem.BlockSize) {
				t.Fatalf("decoded a %v of %d bytes: an access must be 1–%d", in.Kind, in.Size, mem.BlockSize)
			}
		}
		var again bytes.Buffer
		if _, err := WriteTrace(&again, NewSliceReader(recs), uint64(len(recs))); err != nil {
			t.Fatal(err)
		}
		if back := decoded(t, &again); !slices.Equal(back, recs) {
			t.Fatal("records written back decode differently")
		}
	})
}
