package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanLog records the benchmark's own phases — build, decode, twin, rep,
// profile, observe, drivers — each with the span that caused it. Spans
// stay in memory and are written when the benchmark ends, as Chrome
// trace_event JSON (load in Perfetto or chrome://tracing). Spans inside
// the simulator are a later issue; these bracket the calls into it.
type spanLog struct {
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Phase  string  `json:"phase"`
	What   string  `json:"what,omitempty"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
}

type span struct {
	log *spanLog
	id  int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(parent int, phase, what string) span {
	id := len(l.spans) + 1
	l.spans = append(l.spans, spanRec{ID: id, Parent: parent, Phase: phase, What: what, StartS: time.Since(l.t0).Seconds()})
	return span{l, id}
}

func (s span) end() {
	rec := &s.log.spans[s.id-1]
	rec.DurS = time.Since(s.log.t0).Seconds() - rec.StartS
}

// add records a span that ended before this process started (the
// launcher's build): it is placed just before time zero.
func (l *spanLog) add(parent int, phase, what string, durS float64) {
	l.spans = append(l.spans, spanRec{ID: len(l.spans) + 1, Parent: parent, Phase: phase, What: what, StartS: -durS, DurS: durS})
}

// write stores the spans as trace_event JSON; every event's args carry
// its id and its parent's.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"` // µs
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args spanRec `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		name := s.Phase
		if s.What != "" {
			name += " " + s.What
		}
		events[i] = event{Name: name, Ph: "X", TS: s.StartS * 1e6, Dur: s.DurS * 1e6, PID: 1, TID: 1, Args: s}
	}
	blob, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
