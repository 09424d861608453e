package main

import (
	"sort"

	"repro/internal/obs"
)

// traceMaxEvents is the observed run's span buffer. It is far above what
// any headline cell records (fanin-5k, the largest, stays under a
// million), because a dropped span would silently skew every mean below;
// trace.dropped is checked to be 0.
const traceMaxEvents = 8_000_000

// reduceTrace rolls the observed headline cell's spans and probe samples
// up to a few per-component means, all in simulated time. It returns the
// sample count behind model.p99_ms.
//
// XIDs restart at 1 on every client, so with several clients an rpc span
// cannot be paired with its nfs span by xid alone. wire_ms is therefore
// taken in aggregate — per RPC, the time not spent waiting for or being
// served by an nfsd — which equals the mean of the per-xid differences.
func reduceTrace(tr *obs.Trace, series *obs.TimeSeries, m map[string]float64) int {
	type acc struct {
		n   int
		dur float64 // simulated µs
	}
	var rpc, nfs, gather, drain, xfer acc
	var queueUs float64
	var rpcDurs []float64
	spans := 0
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Phase != 'X' {
			continue
		}
		spans++
		d := float64(ev.Dur)
		switch ev.Cat {
		case "rpc":
			rpc.n++
			rpc.dur += d
			rpcDurs = append(rpcDurs, d)
		case "nfs":
			nfs.n++
			nfs.dur += d
			for _, a := range ev.Args {
				if a.Key == "queue_us" {
					queueUs += float64(a.Val)
				}
			}
		case "gather":
			gather.n++
			gather.dur += d
		case "nvram":
			drain.n++
			drain.dur += d
		case "disk":
			xfer.n++
			xfer.dur += d
		}
	}
	meanMs := func(sumUs float64, n int) float64 { return ratio(sumUs, float64(n)) / 1e3 }
	m["simtime.rpc_ms"] = meanMs(rpc.dur, rpc.n)
	m["simtime.nfsd_wait_ms"] = meanMs(queueUs, nfs.n)
	m["simtime.nfsd_service_ms"] = meanMs(nfs.dur, nfs.n)
	m["simtime.wire_ms"] = meanMs(rpc.dur-queueUs-nfs.dur, rpc.n)
	m["simtime.gather_commit_ms"] = meanMs(gather.dur, gather.n)
	m["simtime.nvram_drain_ms"] = meanMs(drain.dur, drain.n)
	m["simtime.disk_xfer_ms"] = meanMs(xfer.dur, xfer.n)
	m["trace.spans"] = float64(spans)
	m["trace.dropped"] = float64(tr.Dropped)

	sort.Float64s(rpcDurs)
	if n := len(rpcDurs); n > 0 {
		m["model.p99_ms"] = rpcDurs[(n-1)*99/100] / 1e3
	}

	for _, col := range []string{"nfsd_queue", "cache_bufs", "nvram_dirty_pct", "disk_util_pct", "rpcs_outstanding", "ol_queue"} {
		m["probe."+col+"_mean"] = 0 // a column the cell does not probe reads 0
	}
	for j, col := range series.Cols {
		if _, want := m["probe."+col+"_mean"]; !want {
			continue
		}
		var sum float64
		for _, row := range series.Rows {
			sum += row[j]
		}
		m["probe."+col+"_mean"] = ratio(sum, float64(len(series.Rows)))
	}
	return len(rpcDurs)
}
