package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spb/internal/mem"
)

// Trace file format: the standard simulator workflow of recording a
// workload's instruction stream once and replaying it later (or feeding a
// stream captured elsewhere into this simulator) as a Program of one replay
// leaf. The format is a gzip stream of fixed-width little-endian records
// behind a small header.
//
//	magic   [4]byte  "SPBT"
//	version uint32   1
//	count   uint64   number of instructions
//	records count × {kind u8, size u8, dep1 u8, dep2 u8, flags u8,
//	                 pad [3]u8, addr u64, pc u64}
//
// flags bit 0 = mispredicted, bit 1 = taken.
const (
	fileMagic   = "SPBT"
	fileVersion = 1
	recordBytes = 24
)

// WriteTrace records up to max instructions from r into w.
func WriteTrace(w io.Writer, r Reader, max uint64) (written uint64, err error) {
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)

	// The header carries the record count, and a gzip stream cannot be
	// rewritten in place once the count is known, so the records are staged
	// in memory first, bounded by max. For simulator traces (hundreds of MB
	// at most) this is fine. The count is exact: OpenTrace decodes that many
	// records and no more, and a count of 0 is an empty trace.
	var staged []Inst
	var in Inst
	for uint64(len(staged)) < max && r.Next(&in) {
		staged = append(staged, in)
	}

	if _, err := bw.WriteString(fileMagic); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(fileVersion)); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(staged))); err != nil {
		return 0, err
	}
	var rec [recordBytes]byte
	for i := range staged {
		encodeRecord(&rec, &staged[i])
		if _, err := bw.Write(rec[:]); err != nil {
			return written, err
		}
		written++
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, zw.Close()
}

func encodeRecord(rec *[recordBytes]byte, in *Inst) {
	rec[0] = byte(in.Kind)
	rec[1] = in.Size
	rec[2] = in.Dep1
	rec[3] = in.Dep2
	var flags byte
	if in.Mispredicted {
		flags |= 1
	}
	if in.Taken {
		flags |= 2
	}
	rec[4] = flags
	rec[5], rec[6], rec[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(rec[8:16], uint64(in.Addr))
	binary.LittleEndian.PutUint64(rec[16:24], in.PC)
}

// decodeRecord refuses a record the simulator cannot model: an unknown kind,
// or a load or store outside 1–64 bytes (the store buffer's block filter
// assumes an access spans at most two blocks).
func decodeRecord(rec *[recordBytes]byte) (Inst, error) {
	kind := Kind(rec[0])
	if int(kind) >= NumKinds {
		return Inst{}, fmt.Errorf("%w: corrupt record: kind %d", ErrBadTrace, rec[0])
	}
	if kind.IsMem() && (rec[1] == 0 || rec[1] > mem.BlockSize) {
		return Inst{}, fmt.Errorf("%w: corrupt record: %v of %d bytes", ErrBadTrace, kind, rec[1])
	}
	return Inst{
		Kind:         kind,
		Size:         rec[1],
		Dep1:         rec[2],
		Dep2:         rec[3],
		Mispredicted: rec[4]&1 != 0,
		Taken:        rec[4]&2 != 0,
		Addr:         mem.Addr(binary.LittleEndian.Uint64(rec[8:16])),
		PC:           binary.LittleEndian.Uint64(rec[16:24]),
	}, nil
}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// OpenTrace decodes a recorded trace into the records a replay leaf
// (OpReplay) emits. The slice grows as records arrive, never by the header's
// count, and a body that holds fewer records than its header announces is
// refused, like a record the simulator cannot model, with ErrBadTrace.
func OpenTrace(r io.Reader) ([]Inst, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil || version != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadTrace)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadTrace)
	}
	var recs []Inst
	var rec [recordBytes]byte
	for n := uint64(0); n < count; n++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated after %d of %d records", ErrBadTrace, n, count)
		}
		in, err := decodeRecord(&rec)
		if err != nil {
			return nil, err
		}
		recs = append(recs, in)
	}
	return recs, nil
}
