// Command nfstrace prints the paper's Figure 1: the message/disk timeline
// of a 4-biod sequential writer against a standard server and against a
// write-gathering server, >100K into the file.
//
// Usage:
//
//	nfstrace            # both timelines
//	nfstrace -gather    # gathering server only
//	nfstrace -standard  # standard server only
//	nfstrace -biods 7
//	nfstrace -capture ops.json   # save the client op timeline as a
//	                             # replayable capture (openload replay)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	gatherOnly := flag.Bool("gather", false, "show only the gathering server")
	standardOnly := flag.Bool("standard", false, "show only the standard server")
	biods := flag.Int("biods", 4, "client biod count")
	capture := flag.String("capture", "",
		"write the client op timeline to this file as a replayable capture "+
			"(JSON; replays via the scenario engine's openload workload)")
	flag.Parse()

	// The registry's figure1 is one cell per server build; keep the
	// builds asked for (a capture takes exactly one).
	spec, _ := scenario.Lookup("figure1")
	spec.Topology.Clients[0].Biods = *biods
	keep := map[bool]bool{false: !*gatherOnly, true: !*standardOnly}
	if *capture != "" {
		keep = map[bool]bool{*gatherOnly: true}
	}
	var cells []scenario.Cell
	for _, c := range spec.Cells {
		if keep[*c.Gathering] {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		return
	}
	spec.Cells = cells
	res := scenario.MustRun(spec)

	if *capture != "" {
		name := "figure1-standard"
		if *gatherOnly {
			name = "figure1-gathering"
		}
		tr, err := trace.CaptureFigure1(name, res.Cells[0].TraceLog)
		if err == nil {
			err = trace.SaveOps(*capture, tr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfstrace:", err)
			os.Exit(1)
		}
		fmt.Printf("captured %d ops over %v to %s (%s)\n",
			len(tr.Ops), tr.Duration(), *capture, tr.Name)
		return
	}

	for _, c := range res.Cells {
		fmt.Println(c.TraceText)
		sum := c.TraceLog.Summary(0, 1<<62)
		disk := 0
		for k, v := range sum {
			if strings.HasPrefix(k, "disk:") {
				disk += v
			}
		}
		fmt.Printf("totals: client sends=%d replies=%d disk ops=%d\n\n",
			sum["client:8K"], sum["client:<-"], disk)
	}
}
