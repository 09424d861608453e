package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// pid/tid interning: Chrome's trace viewer wants integer process and
// thread ids, with human names attached via "M" (metadata) events. Each
// distinct process string becomes a pid, each (process, thread) pair a
// globally unique tid, assigned in first-appearance order so output is
// deterministic.
type interner struct {
	pids map[string]int
	tids map[[2]string]int
	meta []jsonRaw // metadata events, in assignment order
}

type jsonRaw []byte

func newInterner() *interner {
	return &interner{pids: map[string]int{}, tids: map[[2]string]int{}}
}

func (in *interner) pid(proc string) int {
	if id, ok := in.pids[proc]; ok {
		return id
	}
	id := len(in.pids) + 1
	in.pids[proc] = id
	in.meta = append(in.meta, jsonRaw(fmt.Sprintf(
		`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
		id, jsonString(proc))))
	return id
}

func (in *interner) tid(proc, thread string) int {
	if thread == "" {
		thread = "main"
	}
	k := [2]string{proc, thread}
	if id, ok := in.tids[k]; ok {
		return id
	}
	pid := in.pid(proc)
	id := len(in.tids) + 1
	in.tids[k] = id
	in.meta = append(in.meta, jsonRaw(fmt.Sprintf(
		`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
		pid, id, jsonString(thread))))
	return id
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// WriteTraces serializes one or more cell traces into a single Chrome
// trace_event JSON document ({"traceEvents": [...]}). With more than
// one trace, process names are prefixed with the cell label so a sweep
// shows one process group per cell. Output is deterministic: events
// keep recording order and ids are assigned on first appearance.
func WriteTraces(w io.Writer, traces []*Trace) error {
	bw := bufio.NewWriter(w)
	in := newInterner()

	// First pass: assign ids (and emit nothing), so metadata events can
	// lead the file — Perfetto applies names only to later events.
	for _, t := range traces {
		for i := range t.Events {
			ev := &t.Events[i]
			proc := procName(t, len(traces) > 1, ev.Proc)
			if ev.Phase == 'C' {
				in.pid(proc)
			} else {
				in.tid(proc, ev.Thread)
			}
		}
	}

	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	for _, m := range in.meta {
		comma()
		bw.Write(m)
	}
	for _, t := range traces {
		for i := range t.Events {
			ev := &t.Events[i]
			proc := procName(t, len(traces) > 1, ev.Proc)
			comma()
			writeEvent(bw, in, proc, ev)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func procName(t *Trace, multi bool, proc string) string {
	if multi && t.Label != "" {
		return t.Label + "/" + proc
	}
	return proc
}

func writeEvent(bw *bufio.Writer, in *interner, proc string, ev *Event) {
	fmt.Fprintf(bw, `{"name":%s,"ph":"%c"`, jsonString(ev.Name), ev.Phase)
	if ev.Cat != "" {
		fmt.Fprintf(bw, `,"cat":%s`, jsonString(ev.Cat))
	}
	fmt.Fprintf(bw, `,"ts":%d`, int64(ev.TS))
	if ev.Phase == 'X' {
		fmt.Fprintf(bw, `,"dur":%d`, int64(ev.Dur))
	}
	pid := in.pid(proc)
	tid := 0
	if ev.Phase != 'C' {
		tid = in.tid(proc, ev.Thread)
	}
	fmt.Fprintf(bw, `,"pid":%d,"tid":%d`, pid, tid)
	if len(ev.Args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range ev.Args {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, `%s:%d`, jsonString(a.Key), a.Val)
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}
