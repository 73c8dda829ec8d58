package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side record: a call into a layer (or, for spbd, a
// phase the daemon recorded itself, re-parented under the client call that
// caused it). Spans of one repetition or one request share Trace.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 = root
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	DurNS  int64     `json:"dur_ns"`
	SelfNS int64     `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// open is a started span; end closes it.
type open struct {
	r  *recorder
	id int
}

func (r *recorder) start(trace, name string, parent int) open {
	if r == nil {
		return open{}
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Now()})
	r.mu.Unlock()
	return open{r, id}
}

func (o open) end() {
	if o.r == nil {
		return
	}
	now := time.Now()
	o.r.mu.Lock()
	s := &o.r.spans[o.id-1]
	s.End = now
	s.DurNS = now.Sub(s.Start).Nanoseconds()
	o.r.mu.Unlock()
}

// add records an already-finished span (a daemon span fetched by job id).
func (r *recorder) add(trace, name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start, End: end, DurNS: end.Sub(start).Nanoseconds()})
	return id
}

// selfTimes fills SelfNS: a span's duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start.Before(spans[ks[b]].Start) })
		covered := int64(0)
		cursor := s.Start
		for _, k := range ks {
			st, en := spans[k].Start, spans[k].End
			if st.Before(cursor) {
				st = cursor
			}
			if en.After(s.End) {
				en = s.End
			}
			if en.After(st) {
				covered += en.Sub(st).Nanoseconds()
				cursor = en
			}
		}
		s.SelfNS = s.DurNS - covered
	}
}

// write stores the spans as NDJSON, one span per line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	selfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
