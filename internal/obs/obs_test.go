package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// traceDoc mirrors the Chrome trace_event schema subset we emit.
type traceDoc struct {
	TraceEvents []traceEv `json:"traceEvents"`
}

type traceEv struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	TS   *int64         `json:"ts"`
	Dur  *int64         `json:"dur"`
	PID  *int           `json:"pid"`
	TID  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

func buildTrace(label string) *Trace {
	t := NewTrace(label, 0)
	t.Span("client:c0", "rpc", "write", "rpc", 100, 350,
		Arg{"xid", 7}, Arg{"attempts", 1}, Arg{"ok", 1})
	t.Span("server:s0", "nfsd0", "write", "server", 150, 300, Arg{"xid", 7})
	t.Span("server:s0", "gather", "commit", "gather", 200, 280, Arg{"batch", 3})
	t.Counter("probes", "nfsd_queue_depth", 250, 4)
	return t
}

func TestTraceEventJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []*Trace{buildTrace("cell0")}); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events emitted")
	}
	spans, counters, meta := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil {
				t.Fatalf("span missing ts/dur/pid/tid: %+v", ev)
			}
		case "C":
			counters++
			if ev.Args["value"] == nil {
				t.Fatalf("counter missing args.value: %+v", ev)
			}
		case "M":
			meta++
			if ev.Args["name"] == nil {
				t.Fatalf("metadata missing args.name: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 3 || counters != 1 {
		t.Fatalf("got %d spans, %d counters; want 3, 1", spans, counters)
	}
	if meta == 0 {
		t.Fatal("no process/thread metadata events")
	}
	// Span args survive round-trip with integer values.
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "commit" {
			found = true
			if v, ok := ev.Args["batch"].(float64); !ok || v != 3 {
				t.Fatalf("commit batch arg = %v", ev.Args["batch"])
			}
		}
	}
	if !found {
		t.Fatal("commit span missing")
	}
}

func TestTraceDeterministicAndMultiCellPrefix(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTraces(&a, []*Trace{buildTrace("x"), buildTrace("y")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraces(&b, []*Trace{buildTrace("x"), buildTrace("y")}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces serialized differently")
	}
	if !strings.Contains(a.String(), `"x/client:c0"`) ||
		!strings.Contains(a.String(), `"y/server:s0"`) {
		t.Fatalf("multi-cell export must prefix process names with the cell label:\n%s", a.String())
	}
}

func TestTraceCapDropsNotGrows(t *testing.T) {
	tr := NewTrace("c", 10)
	for i := 0; i < 25; i++ {
		tr.Span("p", "t", "s", "", sim.Time(i), sim.Time(i+1))
	}
	if len(tr.Events) != 10 {
		t.Fatalf("stored %d events, want cap 10", len(tr.Events))
	}
	if tr.Dropped != 15 {
		t.Fatalf("dropped = %d, want 15", tr.Dropped)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	s := NewTimeSeries("cell0", "qdepth", "util_pct")
	s.Sample(sim.Time(1_000_000), 3, 42.5)
	s.Sample(sim.Time(2_000_000), 0, 7)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, []*TimeSeries{s}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cell,time_s,qdepth,util_pct" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if lines[1] != "cell0,1.000000,3,42.5" {
		t.Fatalf("bad row: %q", lines[1])
	}
}
