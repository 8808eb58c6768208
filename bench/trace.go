package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded in bench/ around a call into a layer.
// The hierarchy is run -> workload -> configuration | probe. All spans are
// opened and closed on the rig's own goroutine, so the tracer needs no lock.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the run span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // filled by selfTimes: duration minus children
}

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name, workload string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}

// selfTimes fills SelfNS: a span's duration minus the part its children
// cover. Children of one parent never overlap here (one goroutine), so the
// children's durations simply subtract.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
}

func (t *tracer) writeFile(path string) error {
	t.selfTimes()
	b, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
