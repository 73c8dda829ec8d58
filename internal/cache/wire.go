package cache

import (
	"bytes"
	"encoding/gob"

	"spb/internal/mem"
)

// Gob wire form of a Snapshot (crash-safe checkpoints, DESIGN.md §15). The
// snapshot's canonical form already zeroes free ways, so the wire form is the
// logical content field for field.

type lineWire struct {
	Block         mem.Block
	State         State
	ReadyAt       uint64
	Prefetched    bool
	PrefetchWrite bool
	Owner         uint8 // owning core + 1, 0 = none (Line.owner as stored)
	Sharers       uint64
}

type snapshotWire struct {
	Lines []lineWire
	Rec   []uint64
	Live  []uint16

	Outstanding []uint64

	TagAccesses, Hits, Misses, Evictions, Writebacks uint64
}

// GobEncode implements gob.GobEncoder.
func (s *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotWire{
		Lines:       make([]lineWire, len(s.lines)),
		Rec:         s.rec,
		Live:        s.live,
		Outstanding: s.outstanding,
		TagAccesses: s.tagAccesses,
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
		Writebacks:  s.writebacks,
	}
	for i, l := range s.lines {
		w.Lines[i] = lineWire{Block: l.Block, State: l.State, ReadyAt: l.ReadyAt,
			Prefetched: l.Prefetched, PrefetchWrite: l.PrefetchWrite,
			Owner: l.owner, Sharers: l.Sharers}
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
	s.lines = make([]Line, len(w.Lines))
	for i, l := range w.Lines {
		s.lines[i] = Line{Block: l.Block, State: l.State, ReadyAt: l.ReadyAt,
			Prefetched: l.Prefetched, PrefetchWrite: l.PrefetchWrite,
			owner: l.Owner, Sharers: l.Sharers}
	}
	s.rec = w.Rec
	s.live = w.Live
	s.outstanding = w.Outstanding
	s.tagAccesses = w.TagAccesses
	s.hits = w.Hits
	s.misses = w.Misses
	s.evictions = w.Evictions
	s.writebacks = w.Writebacks
	return nil
}
