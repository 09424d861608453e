package main

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/nvram"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/vfs"
)

var netDrivers = []driver{
	{family: "netsim", setup: func() loopFn { return datagrams(hw.FDDI()) }, metrics: []metricOf{nsPerCall("netsim.dgram8k_fddi_ns")}},
	{family: "netsim", setup: func() loopFn { return datagrams(hw.Ethernet()) }, metrics: []metricOf{nsPerCall("netsim.dgram8k_eth_ns")}},
	{family: "netsim", setup: bridgeHop, metrics: []metricOf{nsPerCall("netsim.bridge_hop_ns")}},
	{family: "netsim", setup: fabricBuild, metrics: []metricOf{msPerCall("netsim.fabric_build_ms")}, countN: 1},
}

// datagrams: an 8K datagram serialized onto the medium, delivered into a
// socket buffer and taken out of it by a receiver process.
func datagrams(p hw.NetParams) loopFn {
	s := sim.New(1)
	net := netsim.New(s, p)
	net.Attach("a", 0, 0)
	return sendLoop(s, net, net.Attach("b", 0, 0))
}

// bridgeHop: the same datagram from an Ethernet leaf across one
// store-and-forward bridge onto the FDDI core.
func bridgeHop() loopFn {
	s := sim.New(1)
	f := netsim.NewFabric(s, bridgedSegments(1))
	f.Segment("lan1").Attach("a", 0, 0)
	f.Place("a", "lan1")
	dst := f.Segment("core").Attach("b", 0, 0)
	f.Place("b", "core")
	return sendLoop(s, f.Segment("lan1"), dst)
}

func sendLoop(s *sim.Sim, from *netsim.Network, dst *netsim.Endpoint) loopFn {
	payload := make([]byte, nfsproto.MaxData)
	return func(n int) cost {
		s.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				dst.Inbox.Get(p).Release()
			}
		})
		s.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if !from.Send(p, "a", "b", payload) {
					panic("netsim driver: no route to b")
				}
			}
		})
		m := startMeter(s)
		s.Run(0)
		return m.stop()
	}
}

// bridgedSegments is the fanin-5k fabric shape: one FDDI core and n
// Ethernet leaves, each behind its own bridge with the scenario defaults.
func bridgedSegments(n int) []netsim.SegmentSpec {
	segs := []netsim.SegmentSpec{{Name: "core", Params: hw.FDDI()}}
	for i := 1; i <= n; i++ {
		segs = append(segs, netsim.SegmentSpec{
			Name: fmt.Sprintf("lan%d", i), Params: hw.Ethernet(), Uplink: "core",
			Bridge: netsim.BridgeParams{ForwardLatency: scenario.DefaultBridgeLatency, QueueItems: scenario.DefaultBridgeQueue},
		})
	}
	return segs
}

// fabricBuild: NewFabric plus attaching and placing 50 x 100 hosts.
func fabricBuild() loopFn {
	return func(n int) cost {
		m := startMeter(nil)
		for i := 0; i < n; i++ {
			s := sim.New(1)
			f := netsim.NewFabric(s, bridgedSegments(50))
			for seg := 1; seg <= 50; seg++ {
				lan := fmt.Sprintf("lan%d", seg)
				for h := 0; h < 100; h++ {
					host := fmt.Sprintf("client%d", (seg-1)*100+h+1)
					f.Segment(lan).Attach(host, 0, 0)
					f.Place(host, lan)
				}
			}
		}
		return m.stop()
	}
}

var storageDrivers = []driver{
	{family: "storage", setup: diskWrite8K, metrics: []metricOf{nsPerCall("disk.write8k_ns")}},
	{family: "storage", setup: diskWrite64K, metrics: []metricOf{nsPerCall("disk.write64k_ns")}},
	{family: "storage", setup: diskRead8K, metrics: []metricOf{nsPerCall("disk.read8k_ns")}},
	{family: "storage", setup: nvramWrite8K, metrics: []metricOf{nsPerCall("nvram.write8k_ns")}},
}

// window is how many 8K blocks the storage drivers cycle over: large
// enough to move the arm, small enough to stay resident.
const window = 1024

func diskWrite8K() loopFn {
	s := sim.New(1)
	d := disk.New(s, hw.RZ26(), nil)
	data := make([]byte, ufs.BlockSize)
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				must(d.WriteBlocks(p, int64(i%window), data))
			}
		})
		return m.stop()
	}
}

// diskWrite64K: one clustered transfer of eight refcounted buffers, the
// zero-copy path the buffer cache uses.
func diskWrite64K() loopFn {
	s := sim.New(1)
	d := disk.New(s, hw.RZ26(), nil)
	pool := block.NewAccounting().NewPool()
	bufs := make([]*block.Buf, 8)
	for i := range bufs {
		bufs[i] = pool.Get()
	}
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				must(d.WriteBufs(p, int64(i%(window/8))*8, bufs))
			}
		})
		return m.stop()
	}
}

func diskRead8K() loopFn {
	s := sim.New(1)
	d := disk.New(s, hw.RZ26(), nil)
	buf := make([]byte, ufs.BlockSize)
	inSim(s, func(p *sim.Proc) {
		for i := 0; i < window; i++ {
			must(d.WriteBlocks(p, int64(i), buf))
		}
	})
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				must(d.ReadBlocks(p, int64(i%window), buf))
			}
		})
		return m.stop()
	}
}

// nvramWrite8K: the board accepts 8K writes and drains them to the disk
// behind it; the loop runs until the cache is clean again, so the drain's
// cost is spread over the writes that caused it.
func nvramWrite8K() loopFn {
	s := sim.New(1)
	pr := nvram.New(s, hw.Prestoserve(), disk.New(s, hw.RZ26(), nil), nil)
	data := make([]byte, ufs.BlockSize)
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				must(pr.WriteBlocks(p, int64(i%window), data))
			}
		})
		return m.stop()
	}
}

var ufsDrivers = []driver{
	{family: "ufs", setup: func() loopFn { return ufsCreate(16) }, metrics: []metricOf{nsPerCall("ufs.create_n16_ns")}},
	{family: "ufs", setup: func() loopFn { return ufsCreate(4096) }, metrics: []metricOf{nsPerCall("ufs.create_n4096_ns")}, countN: 16},
	{family: "ufs", setup: ufsMkdir5000, metrics: []metricOf{msPerCall("ufs.mkdir_5000_ms"), allocMBPerCall("ufs.mkdir_5000_alloc_mb")}, countN: 1},
	{family: "ufs", setup: ufsLookup, metrics: []metricOf{nsPerCall("ufs.lookup_ns")}},
	{family: "ufs", setup: ufsRead8K, metrics: []metricOf{nsPerCall("ufs.read8k_ns")}},
	{family: "ufs", setup: func() loopFn { return ufsWrite8K(false) }, metrics: []metricOf{nsPerCall("ufs.write8k_async_ns")}},
	{family: "ufs", setup: func() loopFn { return ufsWrite8K(true) }, metrics: []metricOf{nsPerCall("ufs.write8k_sync_ns")}},
}

func newFS(inodes int) (*sim.Sim, *ufs.FS) {
	s := sim.New(1)
	fs, err := ufs.Format(s, disk.New(s, hw.RZ26(), nil), 1, inodes, nil)
	must(err)
	return s, fs
}

// ufsCreate: one Create into a directory already holding `entries` files.
// Each created file is removed again, untimed, so the directory stays the
// size the metric's name says.
func ufsCreate(entries int) loopFn {
	s, fs := newFS(2 * 4096)
	inSim(s, func(p *sim.Proc) {
		for i := 0; i < entries; i++ {
			_, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%d", i), 0644)
			must(err)
		}
	})
	seq := 0
	return func(n int) cost {
		var c cost
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				seq++
				name := fmt.Sprintf("new%d", seq)
				c.add(lap(s, func() {
					_, err := fs.Create(p, fs.Root(), name, 0644)
					must(err)
				}))
				must(fs.Remove(p, fs.Root(), name))
			}
		})
		return c
	}
}

// ufsMkdir5000: the fanin-5k set-up storm seen from the filesystem, 5,000
// directories made in one parent on a fresh filesystem.
func ufsMkdir5000() loopFn {
	return func(n int) cost {
		var c cost
		for i := 0; i < n; i++ {
			s, fs := newFS(8192)
			m := startMeter(s)
			inSim(s, func(p *sim.Proc) {
				for j := 0; j < 5000; j++ {
					_, err := fs.Mkdir(p, fs.Root(), fmt.Sprintf("olscratch-client%d", j+1), 0755)
					must(err)
				}
			})
			c.add(m.stop())
		}
		return c
	}
}

func ufsLookup() loopFn {
	const entries = 64
	s, fs := newFS(512)
	names := make([]string, entries)
	inSim(s, func(p *sim.Proc) {
		for i := range names {
			names[i] = fmt.Sprintf("ws-client1-%d", i)
			_, err := fs.Create(p, fs.Root(), names[i], 0644)
			must(err)
		}
	})
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := fs.Lookup(p, fs.Root(), names[i%entries])
				must(err)
			}
		})
		return m.stop()
	}
}

// fileBlocks is the size of the file the ufs and core write drivers
// rewrite: past the direct blocks, into the single indirect.
const fileBlocks = 64

func newFile(s *sim.Sim, fs *ufs.FS) vfs.Ino {
	var ino vfs.Ino
	data := make([]byte, ufs.BlockSize)
	inSim(s, func(p *sim.Proc) {
		var err error
		ino, err = fs.Create(p, fs.Root(), "data", 0644)
		must(err)
		for b := 0; b < fileBlocks; b++ {
			must(fs.Write(p, ino, uint32(b*ufs.BlockSize), data, vfs.IOSync))
		}
	})
	return ino
}

func ufsRead8K() loopFn {
	s, fs := newFS(512)
	ino := newFile(s, fs)
	buf := make([]byte, ufs.BlockSize)
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := fs.Read(p, ino, uint32(i%fileBlocks*ufs.BlockSize), buf)
				must(err)
			}
		})
		return m.stop()
	}
}

// ufsWrite8K: a synchronous write-through per 8K, or the gathering
// server's form — delayed writes, then one SyncData and metadata Fsync
// per eight, their cost spread over the eight.
func ufsWrite8K(sync bool) loopFn {
	s, fs := newFS(512)
	ino := newFile(s, fs)
	data := make([]byte, ufs.BlockSize)
	return func(n int) cost {
		m := startMeter(s)
		inSim(s, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				off := uint32(i % fileBlocks * ufs.BlockSize)
				if sync {
					must(fs.Write(p, ino, off, data, vfs.IOSync))
					continue
				}
				must(fs.Write(p, ino, off, data, vfs.IODelayData))
				if i%8 == 7 || i == n-1 {
					must(fs.SyncData(p, ino, 0, fileBlocks*ufs.BlockSize))
					must(fs.Fsync(p, ino, vfs.FWriteMetadata))
				}
			}
		})
		return m.stop()
	}
}

var coreDrivers = []driver{
	{family: "core", setup: func() loopFn { return gatherWrites(8) }, metrics: []metricOf{nsPerCall("core.gather_write_ns")}},
	{family: "core", setup: func() loopFn { return gatherWrites(1) }, metrics: []metricOf{nsPerCall("core.single_write_ns")}},
}

// gatherWrites: nfsd processes pushing 8K writes to one file through the
// gathering engine over a real ufs. With eight of them the writes overlap
// and batches form; with one, every write is its own commit.
func gatherWrites(nfsds int) loopFn {
	s, fs := newFS(512)
	ino := newFile(s, fs)
	eng := core.NewEngine(s, fs, nfsds, core.DefaultConfig(false, hw.FDDI().Procrastinate), nil)
	pool := block.NewAccounting().NewPool()
	return func(n int) cost {
		each := (n + nfsds - 1) / nfsds
		for id := 0; id < nfsds; id++ {
			id := id
			s.Spawn("nfsd", func(p *sim.Proc) {
				for i := 0; i < each; i++ {
					body := pool.Get()
					d := &core.WriteDesc{
						Ino:     ino,
						Offset:  uint32((i*nfsds + id) % fileBlocks * ufs.BlockSize),
						Length:  ufs.BlockSize,
						Body:    body,
						Arrived: p.Now(),
						Send:    func(*sim.Proc, bool) {},
					}
					must(eng.HandleWrite(p, id, d, body.Data()))
					body.Release()
				}
			})
		}
		m := startMeter(s)
		s.Run(0)
		c := m.stop()
		c.calls = each * nfsds
		return c
	}
}
