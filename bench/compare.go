package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, one row per workload, how far each end-to-end metric of
// b sits from a's against the metric's same-seed bound. A pair whose own
// spread between the quartiles exceeds the allowance cannot be told apart
// and is marked unresolved, never "unchanged". It then lists every count
// that must repeat exactly — sim_digest, model.*, *_events — and does not.
// It reports whether b is free of regressions, unresolved pairs and moved
// counts: the A/A test of the benchmark itself, and every later
// before/after, read this.
func compare(out io.Writer, a, b *report) bool {
	if a.Seed != b.Seed {
		// The seed alone moves the counts by up to 2.7 %, more than their bounds.
		fmt.Fprintf(out, "the reports were taken at seeds %d and %d; compare two of one seed\n", a.Seed, b.Seed)
		return false
	}
	clean := true
	fmt.Fprintf(out, "%-14s", "workload")
	for _, def := range endToEnd {
		fmt.Fprintf(out, " %24s", fmt.Sprintf("%s (%s)", def.Name, def.boundText()))
	}
	fmt.Fprintln(out)
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	var moved []string
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-14s missing from the second report\n", wa.Name)
			clean = false
			continue
		}
		fmt.Fprintf(out, "%-14s", wa.Name)
		for _, def := range endToEnd {
			da, db := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			worse := db.Median - da.Median
			if def.Better == "higher" {
				worse = -worse + 0 // + 0 turns a negative zero positive
			}
			verdict := "ok"
			switch {
			case da.N == 0 || db.N == 0:
				verdict = "absent"
			case da.Q3-da.Q1 > def.allowance(da.Median) || db.Q3-db.Q1 > def.allowance(db.Median):
				verdict = "unresolved"
			case worse > def.allowance(da.Median):
				verdict = "REGRESSED"
			}
			if verdict != "ok" {
				clean = false
			}
			fmt.Fprintf(out, " %24s", fmt.Sprintf("%+.2f%% %s", 100*ratio(worse, da.Median), verdict))
		}
		fmt.Fprintln(out)
		if wa.Digest != wb.Digest {
			moved = append(moved, fmt.Sprintf("%s sim_digest: %s -> %s", wa.Name, wa.Digest, wb.Digest))
		}
		moved = append(moved, movedCounts(wa.Name+" ", wa.Layer, wb.Layer)...)
	}
	moved = append(moved, movedCounts("", a.Drivers, b.Drivers)...)
	if len(moved) > 0 {
		clean = false
		fmt.Fprintln(out, "\ncounts that must repeat exactly and do not (identical unless the change declares a model change):")
		for _, m := range moved {
			fmt.Fprintln(out, "  "+m)
		}
	}
	fmt.Fprintln(out, "\n(positive = worse; each delta is the second report's median against the first's)")
	return clean
}

func movedCounts(prefix string, a, b map[string]float64) []string {
	var names []string
	for k := range a {
		if strings.HasPrefix(k, "model.") || strings.HasSuffix(k, "_events") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var moved []string
	for _, k := range names {
		if vb, ok := b[k]; !ok || vb != a[k] {
			moved = append(moved, fmt.Sprintf("%s%s: %v -> %v", prefix, k, a[k], vb))
		}
	}
	return moved
}
