package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// transcript drops the lines that report real time, as the CI filter
// (grep -v ' s wall' | grep -v 'total wall time') does.
func transcript(out string) string {
	var kept []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.Contains(line, " s wall") && !strings.Contains(line, "total wall time") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// TestRunAllMatchesGolden is the identity gate: the whole registry's
// transcript — every paper table and figure, every beyond-paper scenario —
// is byte-identical to the committed one, with the cells run in line
// (-j 1) and on four workers (-j 4). A deliberate model change
// regenerates it with
// go run ./cmd/nfsbench -run all | grep -v ' s wall' | grep -v 'total wall time' > cmd/nfsbench/testdata/run_all.golden
func TestRunAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/run_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		if status := run([]string{"-run", "all", "-j", j}, &stdout, &stderr); status != 0 {
			t.Fatalf("-j %s: exit %d: %s", j, status, stderr.String())
		}
		got := transcript(stdout.String())
		if got == string(want) {
			continue
		}
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("-j %s: line %d differs from testdata/run_all.golden:\n got %.200q\nwant %.200q", j, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("-j %s: transcript is %d lines, golden %d", j, len(gotLines), len(wantLines))
	}
}

// TestTraceAndProbesHonouredForEveryName: the paper's names write the
// -trace and -probes artifacts like any other scenario.
func TestTraceAndProbesHonouredForEveryName(t *testing.T) {
	dir := t.TempDir()
	traceFile, probeFile := filepath.Join(dir, "t.json"), filepath.Join(dir, "p.csv")
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "table1", "-mb", "1", "-trace", traceFile, "-probes", probeFile}
	if status := run(args, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	if blob, err := os.ReadFile(traceFile); err != nil || !bytes.Contains(blob, []byte(`"traceEvents"`)) {
		t.Errorf("trace file: err=%v, %d bytes without a traceEvents array", err, len(blob))
	}
	if blob, err := os.ReadFile(probeFile); err != nil || !bytes.HasPrefix(blob, []byte("cell,time_s,")) || bytes.Count(blob, []byte("\n")) < 2 {
		t.Errorf("probe CSV: err=%v, %d bytes, want a header and samples", err, len(blob))
	}
}

// TestUnknownNameFailsBeforeAnyRun: one bad name in the list exits 2 with
// the known names and without running the good ones first.
func TestUnknownNameFailsBeforeAnyRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-run", "table1,bogus"}, &stdout, &stderr); status != 2 {
		t.Fatalf("exit %d, want 2", status)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before rejecting the name:\n%s", stdout.String())
	}
	for _, want := range []string{`"bogus"`, "known names:", "table1", "kneecurve"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q: %s", want, stderr.String())
		}
	}
}

// TestFuzzPrintsReachTable: a campaign prints its reach table, a row per
// regime with the rows that read zero, and the same table at any -j.
func TestFuzzPrintsReachTable(t *testing.T) {
	out := func(jobs string) string {
		var stdout, stderr bytes.Buffer
		if status := run([]string{"-fuzz", "12", "-seed", "3", "-j", jobs}, &stdout, &stderr); status != 0 {
			t.Fatalf("-j %s: exit %d: %s", jobs, status, stderr.String())
		}
		return stdout.String()
	}
	one := out("1")
	if two := out("2"); one != two {
		t.Fatalf("-fuzz output differs between -j 1 and -j 2:\n%s\nvs\n%s", one, two)
	}
	if !strings.HasPrefix(one, "fuzz reach: runs of 12 that reached each regime\n") {
		t.Fatalf("no reach table heading:\n%s", one)
	}
	for _, row := range []string{"socket drop", "retransmission", "hunter hit", "orphan adoption (§6.9)", "bridge drop",
		"crash", "failover", "link outage", "dropped NVRAM block", "open-loop shed"} {
		if !strings.Contains(one, "\n  "+row+" ") {
			t.Errorf("reach table lacks the %q row:\n%s", row, one)
		}
	}
	if !strings.Contains(one, " 0\n") {
		t.Errorf("no row reads zero in a 12-run campaign, or zero rows are hidden:\n%s", one)
	}
}
