// Laddis sweeps a SPEC SFS 1.0-style mixed workload (15% writes) against
// the standard and gathering servers and prints the throughput/latency
// curve of the paper's Figure 2 (or Figure 3 with -presto).
package main

import (
	"flag"
	"fmt"

	"repro/internal/scenario"
)

func main() {
	presto := flag.Bool("presto", false, "Prestoserve configuration (Figure 3)")
	quick := flag.Bool("quick", true, "coarse sweep (faster)")
	flag.Parse()

	name := "figure2"
	if *presto {
		name = "figure3"
	}
	figure, _ := scenario.Find(name)
	spec := figure.Build()
	if *quick {
		figure.Quick(&spec)
	}
	fmt.Println(figure.Render(scenario.MustRun(spec)))
}
