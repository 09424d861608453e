package main

import (
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xdr"
)

var simDrivers = []driver{
	{family: "sim", setup: simEvent, metrics: []metricOf{nsPerCall("sim.event_ns")}},
	{family: "sim", setup: simProcSwitch, metrics: []metricOf{nsPerCall("sim.proc_switch_ns")}},
	{family: "sim", setup: simCondWake, metrics: []metricOf{nsPerCall("sim.cond_wake_ns")}},
	{family: "sim", setup: simResourceHandoff, metrics: []metricOf{nsPerCall("sim.resource_handoff_ns")}},
	{family: "sim", setup: simSpawn, metrics: []metricOf{nsPerCall("sim.spawn_ns"), allocsPerCall("sim.spawn_allocs")}},
}

// simEvent: one At plus its firing, against a heap already 1024 deep.
func simEvent() loopFn {
	s := sim.New(1)
	for i := 0; i < 1024; i++ {
		s.At(1<<50, func() {})
	}
	return func(n int) cost {
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				s.At(1, fire)
			}
		}
		s.At(1, fire)
		m := startMeter(s)
		s.Run(s.Now().Add(sim.Duration(n) + 1))
		return m.stop()
	}
}

// simProcSwitch: two processes sleeping in antiphase, so every wake-up
// hands the run-loop token to the other goroutine.
func simProcSwitch() loopFn {
	s := sim.New(1)
	return func(n int) cost {
		each := (n + 1) / 2
		for i := 0; i < 2; i++ {
			s.SpawnAfter(sim.Duration(i), "sleeper", func(p *sim.Proc) {
				for j := 0; j < each; j++ {
					p.Sleep(2)
				}
			})
		}
		m := startMeter(s)
		s.Run(0)
		c := m.stop()
		c.calls = 2 * each
		return c
	}
}

// simCondWake: two processes waking each other through a pair of Conds.
func simCondWake() loopFn {
	s := sim.New(1)
	return func(n int) cost {
		each := (n + 1) / 2
		ping, pong := sim.NewCond(s), sim.NewCond(s)
		// The waiter is spawned first so the first Signal finds it parked.
		s.Spawn("pong", func(p *sim.Proc) {
			for j := 0; j < each; j++ {
				pong.Wait(p)
				ping.Signal()
			}
		})
		s.Spawn("ping", func(p *sim.Proc) {
			for j := 0; j < each; j++ {
				pong.Signal()
				ping.Wait(p)
			}
		})
		m := startMeter(s)
		s.Run(0)
		c := m.stop()
		c.calls = 2 * each
		return c
	}
}

// simResourceHandoff: eight processes contending for one slot.
func simResourceHandoff() loopFn {
	s := sim.New(1)
	return func(n int) cost {
		const procs = 8
		each := (n + procs - 1) / procs
		r := sim.NewResource(s, 1)
		for i := 0; i < procs; i++ {
			s.Spawn("user", func(p *sim.Proc) {
				for j := 0; j < each; j++ {
					r.Use(p, 1)
				}
			})
		}
		m := startMeter(s)
		s.Run(0)
		c := m.stop()
		c.calls = procs * each
		return c
	}
}

// simSpawn: spawn, first dispatch and exit of an empty process, in
// batches so that live goroutines stay few.
func simSpawn() loopFn {
	s := sim.New(1)
	return func(n int) cost {
		m := startMeter(s)
		for left := n; left > 0; {
			batch := min(left, 256)
			for i := 0; i < batch; i++ {
				s.Spawn("empty", func(*sim.Proc) {})
			}
			s.Run(0)
			left -= batch
		}
		return m.stop()
	}
}

var codecDrivers = []driver{
	{family: "codec", setup: xdrOpaque8K, metrics: []metricOf{nsPerCall("xdr.opaque8k_ns")}},
	{family: "codec", setup: oncrpcCall, metrics: []metricOf{nsPerCall("oncrpc.call_ns")}},
	{family: "codec", setup: oncrpcReply, metrics: []metricOf{nsPerCall("oncrpc.reply_ns")}},
	{family: "codec", setup: codecLoop(codecWrite), metrics: []metricOf{nsPerCall("nfsproto.write_ns")}},
	{family: "codec", setup: codecLoop(codecRead), metrics: []metricOf{nsPerCall("nfsproto.read_ns")}},
	{family: "codec", setup: codecLoop(codecLookup), metrics: []metricOf{nsPerCall("nfsproto.lookup_ns")}},
	{family: "codec", setup: codecLoop(func(c *codecState) { codecWrite(c); codecRead(c); codecLookup(c) }),
		metrics: []metricOf{allocsPerCall("nfsproto.codec_allocs")}},
}

var statsDrivers = []driver{
	{family: "stats", setup: histRecord, metrics: []metricOf{nsPerCall("stats.hist_record_ns")}},
	{family: "stats", setup: histQuantile, metrics: []metricOf{nsPerCall("stats.hist_quantile_ns")}},
}

// sink keeps decoded results alive so the compiler cannot drop the calls.
var sink int

func xdrOpaque8K() loopFn {
	data := make([]byte, nfsproto.MaxData)
	buf := make([]byte, 0, xdr.OpaqueSize(len(data)))
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			e := xdr.NewEncoder(buf[:0])
			e.Opaque(data)
			got, err := xdr.NewDecoder(e.Bytes()).OpaqueRef()
			must(err)
			sink += len(got)
		}
		return m.stop()
	}
}

func oncrpcCall() loopFn {
	cred := oncrpc.OpaqueAuth{Flavor: oncrpc.AuthUnix, Body: (&oncrpc.UnixCred{MachineName: "client1"}).Encode()}
	verf := oncrpc.NullAuth()
	buf := make([]byte, 0, oncrpc.CallHeaderSize(cred, verf))
	return func(n int) cost {
		var call oncrpc.CallMsg
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			e := xdr.NewEncoder(buf[:0])
			oncrpc.AppendCallHeader(e, uint32(i), nfsproto.Program, nfsproto.Version, uint32(nfsproto.ProcWrite), cred, verf)
			must(oncrpc.DecodeCallInto(e.Bytes(), &call))
			sink += int(call.XID)
		}
		return m.stop()
	}
}

func oncrpcReply() loopFn {
	buf := make([]byte, 0, oncrpc.SuccessHeaderSize)
	return func(n int) cost {
		var reply oncrpc.ReplyMsg
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			e := xdr.NewEncoder(buf[:0])
			oncrpc.AppendSuccessHeader(e, uint32(i))
			must(oncrpc.DecodeReplyInto(e.Bytes(), &reply))
			sink += int(reply.XID)
		}
		return m.stop()
	}
}

// codecState is the scratch one NFS codec round works in: a reused wire
// buffer, as the client and server keep, and an 8K payload.
type codecState struct {
	fh   nfsproto.FH
	buf  []byte
	data []byte
	off  uint32
}

func codecLoop(round func(*codecState)) func() loopFn {
	return func() loopFn {
		c := &codecState{
			fh:   nfsproto.NewFH(1, 42, 1),
			buf:  make([]byte, 0, 2*nfsproto.MaxData),
			data: make([]byte, nfsproto.MaxData),
		}
		return func(n int) cost {
			m := startMeter(nil)
			for i := 0; i < n; i++ {
				c.off += nfsproto.MaxData
				round(c)
			}
			return m.stop()
		}
	}
}

// codecWrite is the split WRITE: the argument head is encoded, the 8K
// body rides beside it by reference.
func codecWrite(c *codecState) {
	e := xdr.NewEncoder(c.buf[:0])
	nfsproto.AppendWriteArgsHead(e, c.fh, c.off, len(c.data))
	var args nfsproto.WriteArgs
	must(nfsproto.DecodeWriteArgsSplitInto(e.Bytes(), c.data, &args))
	sink += len(args.Data)
}

// codecRead is a READ's arguments and its 8K result, the copying path.
func codecRead(c *codecState) {
	e := xdr.NewEncoder(c.buf[:0])
	(&nfsproto.ReadArgs{File: c.fh, Offset: c.off, Count: nfsproto.MaxData}).EncodeTo(e)
	args, err := nfsproto.DecodeReadArgs(e.Bytes())
	must(err)
	e = xdr.NewEncoder(c.buf[:0])
	(&nfsproto.ReadRes{Status: nfsproto.OK, Data: c.data[:args.Count]}).EncodeTo(e)
	var res nfsproto.ReadRes
	must(nfsproto.DecodeReadResInto(e.Bytes(), &res))
	sink += len(res.Data)
}

func codecLookup(c *codecState) {
	e := xdr.NewEncoder(c.buf[:0])
	(&nfsproto.DirOpArgs{Dir: c.fh, Name: "ws-client1-17"}).EncodeTo(e)
	args, err := nfsproto.DecodeDirOpArgs(e.Bytes())
	must(err)
	e = xdr.NewEncoder(c.buf[:0])
	(&nfsproto.DirOpRes{Status: nfsproto.OK, File: args.Dir}).EncodeTo(e)
	var res nfsproto.DirOpRes
	must(nfsproto.DecodeDirOpResInto(e.Bytes(), &res))
	sink += int(res.Status)
}

func histRecord() loopFn {
	var h stats.Histogram
	return func(n int) cost {
		v := int64(1)
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			v = (v*6364136223846793005 + 1442695040888963407) & (1<<24 - 1) // latencies up to ~16 s in µs
			h.Record(v)
		}
		return m.stop()
	}
}

func histQuantile() loopFn {
	var h stats.Histogram
	for v := int64(1); v < 1<<24; v += 997 {
		h.Record(v)
	}
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			sink += int(h.Quantile(0.99))
		}
		return m.stop()
	}
}
