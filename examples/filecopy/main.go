// Filecopy reruns the paper's case study (§5 and Table 1): a 10MB
// sequential file copy over Ethernet with a sweep of client biod counts,
// against both the standard and the write-gathering server. It prints the
// table in the paper's format. Pass -fddi for the Table 3 configuration.
package main

import (
	"flag"
	"fmt"

	"repro/internal/scenario"
)

func main() {
	fddi := flag.Bool("fddi", false, "use the FDDI configuration (Table 3)")
	presto := flag.Bool("presto", false, "add Prestoserve NVRAM (Tables 2/4)")
	mb := flag.Int("mb", 10, "file size in MB")
	flag.Parse()

	name := "table1"
	switch {
	case *fddi && *presto:
		name = "table4"
	case *fddi:
		name = "table3"
	case *presto:
		name = "table2"
	}
	table, _ := scenario.Find(name)
	spec := table.Build()
	spec.Workload.Copy.FileMB = *mb
	res := scenario.MustRun(spec)
	fmt.Println(table.Render(res))

	// The paper's headline observations, computed from the rows.
	_, halves := res.Families()
	wo, wi := halves["std"], halves["wg"]
	last := len(wo) - 1
	biods := scenario.StandardBiods()[last]
	fmt.Printf("0-biod cost of gathering: %.0f%%\n",
		100*(wo[0].ClientKBps-wi[0].ClientKBps)/wo[0].ClientKBps)
	fmt.Printf("%d-biod gain from gathering: %.0f%%\n", biods,
		100*(wi[last].ClientKBps-wo[last].ClientKBps)/wo[last].ClientKBps)
	fmt.Printf("disk transaction reduction at %d biods: %.1fx\n", biods,
		wo[last].DiskTps/wi[last].DiskTps)
	fmt.Printf("mean gather batch at %d biods: %.1f writes per metadata commit\n",
		biods, float64(wi[last].Gather.GatheredWrites)/float64(wi[last].Gather.Gathers))
}
