package trace_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestCaptureFigure1 converts the Figure-1 timeline into a replayable op
// capture: one record per client write send, sorted, starting at zero —
// the artifact `nfstrace -capture` hands to the openload replay path.
func TestCaptureFigure1(t *testing.T) {
	spec, _ := scenario.Lookup("figure1")
	spec.Cells = spec.Cells[:1]
	res := scenario.MustRun(spec)
	tr, err := trace.CaptureFigure1("figure1-standard", res.Cells[0].TraceLog)
	if err != nil {
		t.Fatal(err)
	}
	// 256KB sequential file in 8K writes: 32 sends.
	if len(tr.Ops) != 32 {
		t.Fatalf("captured %d ops, want 32", len(tr.Ops))
	}
	if tr.Ops[0].At != 0 {
		t.Errorf("capture does not start at zero: %v", tr.Ops[0].At)
	}
	offs := map[uint32]bool{}
	for i, r := range tr.Ops {
		if r.Op != "write" || r.N != 8*1024 {
			t.Errorf("op %d: got %s/%d bytes, want a write/8192", i, r.Op, r.N)
		}
		if i > 0 && r.At < tr.Ops[i-1].At {
			t.Errorf("op %d arrives before op %d", i, i-1)
		}
		offs[r.Off] = true
	}
	if len(offs) != 32 {
		t.Errorf("captured %d distinct offsets, want 32 (one per 8K block)", len(offs))
	}
	if tr.Duration() <= 0 {
		t.Error("capture spans no time")
	}
}
