package server_test

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/server"
)

// TestPlantedUnheldDupReplyIsCaught plants a dup entry without its Ref —
// done keeps the reply head but takes no reference to it — in a one-cell
// copy, and holds the cell to failing loudly. Without the hook the cell
// runs clean. With it the reply's slab can be carved again, or handed to
// the next cell on the worker, while the entry still aliases it; the
// head identity at quiesce is what catches it: every entry counts a head
// the segments no longer have a reference for.
func TestPlantedUnheldDupReplyIsCaught(t *testing.T) {
	spec := scenario.Copy("planted-dup", "1 MB copy", "fddi", false, 1, 1, 1, nil)
	spec.Cells = []scenario.Cell{scenario.CopyCell(4, true)}
	run := func(plant bool) (msg string) {
		if plant {
			defer server.KeepDupRepliesUnheld()()
		}
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		if _, err := scenario.RunWorkers(spec, 1); err != nil {
			t.Fatal(err)
		}
		return ""
	}
	if msg := run(false); msg != "" {
		t.Fatalf("unplanted: the cell failed: %s", msg)
	}
	// Each of the copy's 130 dup entries counts a head, and the client's
	// last reply is the one reference the segments still count.
	const want = "scenario: head ledger does not balance: 1 references to carved heads, 130 held by dup caches and clients"
	if msg := run(true); msg != want {
		t.Fatalf("planted: the cell ended with %q, want %q", msg, want)
	}
}
