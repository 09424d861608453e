package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/sim"
)

// OpRecord is one captured operation: what was done, to which file of
// the working set, at what offset, and when (relative to the capture
// start). Captures replay open-loop through the scenario engine's
// "openload" workload, which re-emits each record at its recorded
// (optionally speed-scaled) instant.
type OpRecord struct {
	// At is the arrival instant relative to the capture start.
	At sim.Duration `json:"at_ns"`
	// Op is the operation name (workload op vocabulary: "lookup",
	// "read", "write", "getattr", ...).
	Op string `json:"op"`
	// File indexes the working-set file the op targets.
	File int `json:"file"`
	// Off is the byte offset for read/write ops.
	Off uint32 `json:"off,omitempty"`
	// N is the transfer size in bytes for read/write ops.
	N int `json:"n,omitempty"`
}

// OpTrace is a captured op timeline, the replayable artifact behind
// `nfstrace -capture` and the openload workload's replay mode.
type OpTrace struct {
	// Name labels the capture (source scenario or trace).
	Name string `json:"name,omitempty"`
	// Ops is the timeline, sorted by At.
	Ops []OpRecord `json:"ops"`
}

// Duration reports the recorded span: the arrival instant of the last
// op (0 for an empty capture).
func (t *OpTrace) Duration() sim.Duration {
	if len(t.Ops) == 0 {
		return 0
	}
	return t.Ops[len(t.Ops)-1].At
}

// MaxFile reports the highest file index referenced (-1 when empty).
func (t *OpTrace) MaxFile() int {
	max := -1
	for _, r := range t.Ops {
		if r.File > max {
			max = r.File
		}
	}
	return max
}

// Sort orders the timeline by arrival instant, preserving the relative
// order of simultaneous records.
func (t *OpTrace) Sort() {
	sort.SliceStable(t.Ops, func(i, j int) bool { return t.Ops[i].At < t.Ops[j].At })
}

// SaveOps writes the capture as indented JSON.
func SaveOps(path string, t *OpTrace) error {
	blob, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("trace: encode op capture: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadOps reads a capture written by SaveOps, validating that the
// timeline is non-empty and sorted (it sorts a shuffled one rather than
// failing — hand-edited captures stay usable).
func LoadOps(path string) (*OpTrace, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: read op capture: %w", err)
	}
	var t OpTrace
	if err := json.Unmarshal(blob, &t); err != nil {
		return nil, fmt.Errorf("trace: decode op capture %s: %w", path, err)
	}
	if len(t.Ops) == 0 {
		return nil, fmt.Errorf("trace: op capture %s has no ops", path)
	}
	t.Sort()
	return &t, nil
}

// CaptureFigure1 converts a Figure-1 timeline's client-lane write sends
// into a replayable op capture: each "8K Write off=NK ->" event becomes
// one record at its recorded instant, relative to the first send. The
// capture replays through the scenario engine's openload workload,
// re-offering the exact Figure-1 write timeline — same inter-arrival
// gaps — against any rig.
func CaptureFigure1(name string, log *Log) (*OpTrace, error) {
	tr := &OpTrace{Name: name}
	var first sim.Time
	for _, e := range log.Events {
		if e.Lane != "client" {
			continue
		}
		var offKB int
		if _, err := fmt.Sscanf(e.Label, "8K Write off=%dK ->", &offKB); err != nil {
			continue
		}
		if len(tr.Ops) == 0 {
			first = e.T
		}
		tr.Ops = append(tr.Ops, OpRecord{
			At:   e.T.Sub(first),
			Op:   "write",
			File: 0,
			Off:  uint32(offKB) * 1024,
			N:    8 * 1024,
		})
	}
	if len(tr.Ops) == 0 {
		return nil, fmt.Errorf("trace: figure-1 log has no client write sends to capture")
	}
	tr.Sort()
	return tr, nil
}
