// Scenario: compose an experiment no registry name expresses — entirely
// as data. A two-shard cluster where one shard runs Presto NVRAM and the
// other does not, under client write streams with every acked write
// durability-checked, driven through the typed fault API: the Presto
// shard first survives a classic crash/reboot cycle (the reboot replays
// its NVRAM), one client's network attachment flaps mid-stream, and
// finally the Presto shard dies for good and the plain shard adopts its
// disks under a stable FSID — handles stay valid, clients reroute, and
// the checker reads every acked byte back through the migrated export.
//
// Run with -dump to print the spec as JSON instead (pipe it to a file,
// check it with `nfsbench -validate <file>`, edit it, and replay it with
// `nfsbench -scenario <file>`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	dump := flag.Bool("dump", false, "print the spec as JSON and exit")
	flag.Parse()

	presto := true
	std, wg := false, true
	client1 := 1
	spec := scenario.Spec{
		Name:        "mixed-shard-faults",
		Description: "asymmetric shards (one Presto, one plain): the Presto shard crashes and reboots, a client link flaps, then the Presto shard dies for good and is adopted",
		Seed:        2026,
		Topology: scenario.Topology{
			Net:     "fddi",
			Clients: []scenario.ClientGroup{{Count: 2, Biods: 4, MaxRetries: 64}},
			Servers: scenario.Servers{
				Count: 2,
				Nodes: []scenario.NodeOverride{
					{}, // shard 1: plain disk
					{Presto: &presto},
				},
			},
		},
		Workload: scenario.Workload{Kind: scenario.KindStream,
			Stream: &scenario.StreamWorkload{FileMB: 1, Shard: true}},
		Faults: scenario.Faults{
			CheckDurability: true,
			Events: []scenario.FaultEvent{
				{
					Kind: scenario.FaultServerCrash,
					ServerCrash: &scenario.ServerCrashFault{
						Node: 1, At: 300 * sim.Millisecond,
						Outage: 150 * sim.Millisecond, Count: 1,
					},
				},
				{
					Kind: scenario.FaultLinkOutage,
					LinkOutage: &scenario.LinkOutageFault{
						Client: &client1, At: 600 * sim.Millisecond,
						Outage: 100 * sim.Millisecond, Count: 1,
					},
				},
				{
					Kind: scenario.FaultShardFailover,
					ShardFailover: &scenario.ShardFailoverFault{
						Node: 1, To: 0, At: 1100 * sim.Millisecond,
						Takeover: 250 * sim.Millisecond,
					},
				},
			},
		},
		Cells: []scenario.Cell{
			{Label: "std", Gathering: &std},
			{Label: "wg", Gathering: &wg},
		},
		Metrics: []string{"elapsed_sec", "client_kb_per_sec", "retransmissions", "reboots_seen", "crashes", "lost_bytes"},
	}

	if *dump {
		blob, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			panic(err)
		}
		fmt.Println(string(blob))
		return
	}
	res, err := scenario.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(res.Render())
}
