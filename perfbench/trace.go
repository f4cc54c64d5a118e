package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side span: a call into one layer of the program,
// timed from outside. Spans of one operation share a request id; parent is
// the id of the enclosing span (0 for a root).
type span struct {
	ID, Parent int
	Name       string
	Request    string
	Lane       int
	Start, End time.Duration // offsets from the recorder's epoch
}

// recorder keeps spans in memory for the length of a run. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span and returns its id; close it with end.
func (r *recorder) open(name, request string, parent, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Request: request, Lane: lane, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// timed runs fn inside a span and returns fn's wall time, measured the same
// way whether or not the recorder is nil.
func (r *recorder) timed(name, request string, parent, lane int, fn func()) time.Duration {
	id := r.open(name, request, parent, lane)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// traceEvent is one entry of the Chrome trace-event JSON array format, the
// subset cmd/tracecheck validates.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// events converts the recorded spans into complete ("X") events plus one
// thread-name metadata event per lane. Spans still open are dropped.
func (r *recorder) events() []traceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var evs []traceEvent
	lanes := map[int]bool{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		dur := float64(s.End-s.Start) / 1e3
		evs = append(evs, traceEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: &dur, Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "request_id": s.Request},
		})
		lanes[s.Lane] = true
	}
	for lane := range lanes {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", lane)}})
	}
	return evs
}

// write stores the trace as a JSON array at path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(r.events()); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
