package cpu

import (
	"bytes"
	"encoding/gob"

	"spb/internal/bpred"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/storebuf"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// Gob wire form of a core Snapshot (crash-safe checkpoints, DESIGN.md §15).
// The nested store-buffer, detector, TLB and predictor snapshots carry their
// own gob forms; the RNG travels as its raw xorshift state.

type robEntryWire struct {
	Kind   trace.Kind
	Size   uint8
	Addr   mem.Addr
	PC     uint64
	DoneAt uint64
	SBSeq  uint64
}

type occWire struct {
	Buckets []uint16
	Cursor  uint64
	Count   int
	Far     []uint64
}

func occToWire(s occSnapshot) occWire {
	return occWire{Buckets: s.buckets, Cursor: s.cursor, Count: s.count, Far: s.far}
}

func occFromWire(w occWire) occSnapshot {
	return occSnapshot{buckets: w.Buckets, cursor: w.Cursor, count: w.Count, far: w.Far}
}

type snapshotWire struct {
	Cycle uint64

	FetchReadyAt uint64
	Pending      trace.Inst
	HavePending  bool
	TraceDone    bool

	ROB      []robEntryWire
	ROBHead  int
	ROBTail  int
	ROBCount int

	DoneHist [256]uint64
	Seq      uint64

	IQ, LQ occWire

	HeadAcquired bool
	HeadSeq      uint64
	HeadReadyAt  uint64
	HeadRetries  int

	LastLoadAddr  mem.Addr
	LastStoreAddr mem.Addr

	RNGState uint64
	St       Stats

	SB   *storebuf.Snapshot
	Det  core.DetectorSnapshot
	Has  bool
	DTLB *tlb.Snapshot
	BP   *bpred.Snapshot
}

// GobEncode implements gob.GobEncoder.
func (s *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotWire{
		Cycle:        s.cycle,
		FetchReadyAt: s.fetchReadyAt,
		Pending:      s.pending,
		HavePending:  s.havePending,
		TraceDone:    s.traceDone,
		ROB:          make([]robEntryWire, len(s.rob)),
		ROBHead:      s.robHead,
		ROBTail:      s.robTail,
		ROBCount:     s.robCount,
		DoneHist:     s.doneHist,
		Seq:          s.seq,
		IQ:           occToWire(s.iq),
		LQ:           occToWire(s.lq),
		HeadAcquired: s.headAcquired,
		HeadSeq:      s.headSeq,
		HeadReadyAt:  s.headReadyAt,
		HeadRetries:  s.headRetries,
		LastLoadAddr: s.lastLoadAddr, LastStoreAddr: s.lastStoreAddr,
		RNGState: s.rng.State(),
		St:       s.st,
		SB:       s.sb,
		Det:      s.det,
		Has:      s.has,
		DTLB:     s.dtlb,
		BP:       s.bp,
	}
	for i, e := range s.rob {
		w.ROB[i] = robEntryWire{Kind: e.kind, Size: e.size, Addr: e.addr, PC: e.pc, DoneAt: e.doneAt, SBSeq: e.sbSeq}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Snapshot) GobDecode(data []byte) error {
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	s.cycle = w.Cycle
	s.fetchReadyAt = w.FetchReadyAt
	s.pending = w.Pending
	s.havePending = w.HavePending
	s.traceDone = w.TraceDone
	s.rob = make([]robEntry, len(w.ROB))
	for i, e := range w.ROB {
		s.rob[i] = robEntry{kind: e.Kind, size: e.Size, addr: e.Addr, pc: e.PC, doneAt: e.DoneAt, sbSeq: e.SBSeq}
	}
	s.robHead = w.ROBHead
	s.robTail = w.ROBTail
	s.robCount = w.ROBCount
	s.doneHist = w.DoneHist
	s.seq = w.Seq
	s.iq = occFromWire(w.IQ)
	s.lq = occFromWire(w.LQ)
	s.headAcquired = w.HeadAcquired
	s.headSeq = w.HeadSeq
	s.headReadyAt = w.HeadReadyAt
	s.headRetries = w.HeadRetries
	s.lastLoadAddr = w.LastLoadAddr
	s.lastStoreAddr = w.LastStoreAddr
	s.rng.SetState(w.RNGState)
	s.st = w.St
	s.sb = w.SB
	s.det = w.Det
	s.has = w.Has
	s.dtlb = w.DTLB
	s.bp = w.BP
	return nil
}
