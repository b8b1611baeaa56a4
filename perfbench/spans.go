package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent names the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's origin
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`
}

// maxSpans caps the in-memory span buffer; later spans are counted as
// dropped instead of growing memory with run length.
const maxSpans = 400000

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced runs use the same code paths.
type spanLog struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span // guarded by mu
	nextID  uint64 // guarded by mu
	dropped int    // guarded by mu
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// newTrace reserves an id usable as a trace id and as a root span id.
func (l *spanLog) newTrace() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// add records a span and returns its id. With id 0 a fresh id is taken.
func (l *spanLog) add(trace, id, parent uint64, name string, start, end time.Time, failed bool) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id == 0 {
		l.nextID++
		id = l.nextID
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return id
	}
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
		Failed: failed,
	})
	return id
}

// request records one generator request: a root span from its due time to
// completion, with the generator's lateness and the HTTP exchange as
// children.
func (l *spanLog) request(class string, due, sent, done time.Time, ok bool) {
	if l == nil {
		return
	}
	tr := l.newTrace()
	l.add(tr, tr, 0, "loadgen."+class, due, done, !ok)
	l.add(tr, 0, tr, "loadgen.late", due, sent, false)
	l.add(tr, 0, tr, "http."+class, sent, done, !ok)
}

// write dumps every span as one JSON object per line.
func (l *spanLog) write(path string) (n, dropped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one reported
			return 0, 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return 0, 0, err
	}
	return len(l.spans), l.dropped, f.Close()
}
