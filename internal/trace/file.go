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
// stream captured elsewhere into this simulator). The format is a gzip
// stream of fixed-width little-endian records behind a small header.
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
	// at most) this is fine. The count is exact: OpenTrace replays that many
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
func decodeRecord(rec *[recordBytes]byte, out *Inst) error {
	kind := Kind(rec[0])
	if int(kind) >= NumKinds {
		return fmt.Errorf("%w: corrupt record: kind %d", ErrBadTrace, rec[0])
	}
	if kind.IsMem() && (rec[1] == 0 || rec[1] > mem.BlockSize) {
		return fmt.Errorf("%w: corrupt record: %v of %d bytes", ErrBadTrace, kind, rec[1])
	}
	*out = Inst{
		Kind:         kind,
		Size:         rec[1],
		Dep1:         rec[2],
		Dep2:         rec[3],
		Mispredicted: rec[4]&1 != 0,
		Taken:        rec[4]&2 != 0,
		Addr:         mem.Addr(binary.LittleEndian.Uint64(rec[8:16])),
		PC:           binary.LittleEndian.Uint64(rec[16:24]),
	}
	return nil
}

// FileReader replays a recorded trace.
type FileReader struct {
	zr        *gzip.Reader
	br        *bufio.Reader
	remaining uint64
	err       error
}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// OpenTrace prepares a recorded trace for replay.
func OpenTrace(r io.Reader) (*FileReader, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
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
	return &FileReader{zr: zr, br: br, remaining: count}, nil
}

// Next implements Reader.
func (f *FileReader) Next(out *Inst) bool {
	if f.err != nil || f.remaining == 0 {
		return false
	}
	var rec [recordBytes]byte
	if _, err := io.ReadFull(f.br, rec[:]); err != nil {
		f.err = fmt.Errorf("%w: truncated records", ErrBadTrace)
		return false
	}
	if err := decodeRecord(&rec, out); err != nil {
		f.err = err
		return false
	}
	f.remaining--
	return true
}

// Err returns the first decoding error encountered, if any.
func (f *FileReader) Err() error { return f.err }

// Remaining reports how many instructions are left to replay.
func (f *FileReader) Remaining() uint64 { return f.remaining }

// Close releases the decompressor.
func (f *FileReader) Close() error { return f.zr.Close() }
