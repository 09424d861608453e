// Package rig assembles one single-server testbed (client hosts, network,
// server, device stack) — the hardware/software configuration matrix of
// the paper's Tables 1-6 and Figures 1-3. internal/scenario builds rigs
// from declarative specs; bench/ builds them directly for its server
// layer drivers.
package rig

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nvram"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Config selects one hardware/software configuration.
type Config struct {
	// Net selects the LAN (hw.Ethernet() or hw.FDDI()).
	Net hw.NetParams
	// Segments, when non-empty, replaces the single Net medium with a
	// bridged fabric of named segments (see netsim.Fabric).
	Segments []netsim.SegmentSpec
	// ServerSegment places the server (default: the root segment).
	ServerSegment string
	// ClientSegment places the client hosts (default: the root).
	ClientSegment string
	// Presto interposes an NVRAM board in front of the disk stack.
	Presto bool
	// Gathering enables the write gathering engine.
	Gathering bool
	// GatherOverride replaces the default engine policy when non-nil
	// (ablations).
	GatherOverride *core.Config
	// StripeDisks selects the spindle count: 1 for a lone RZ26, 3 for the
	// paper's stripe set.
	StripeDisks int
	// NumNfsds is the server daemon count (paper: 8 for copies, 32 for
	// LADDIS).
	NumNfsds int
	// Clients is the number of client hosts to attach.
	Clients int
	// Biods per client.
	Biods int
	// CPUScale divides every CPU cost (the FDDI tables ran on a ~1.8x
	// faster DEC 3800).
	CPUScale float64
	// Seed drives all randomness.
	Seed int64
	// RecordReplies enables the server's crash-audit reply log.
	RecordReplies bool
	// Inodes sizes the filesystem's inode table (default 512).
	Inodes int
	// Acct is the buffer ledger every pool in the rig charges (nil = the
	// process-global one). The scenario engine gives each cell its own,
	// so cells executing in parallel keep exact, independent accounting.
	Acct *block.Accounting
}

// Rig is an assembled testbed.
type Rig struct {
	Sim *sim.Sim
	// Net is the server's segment: the lone medium without a fabric.
	Net *netsim.Network
	// Fabric is the bridged segment tree (nil without Config.Segments).
	Fabric  *netsim.Fabric
	Disks   []*disk.Disk
	Stripe  *disk.Stripe
	Presto  *nvram.Presto
	FS      *ufs.FS
	Server  *server.Server
	Clients []*client.Client

	cfg       Config
	costs     hw.CPUParams
	cpuMark   sim.Duration
	transMark uint64
	bytesMark uint64
	timeMark  sim.Time
}

// New builds the full stack for cfg.
func New(cfg Config) *Rig {
	if cfg.StripeDisks == 0 {
		cfg.StripeDisks = 1
	}
	if cfg.NumNfsds == 0 {
		cfg.NumNfsds = 8
	}
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	if cfg.Inodes == 0 {
		cfg.Inodes = 512
	}
	s := sim.New(cfg.Seed)
	var fabric *netsim.Fabric
	var n *netsim.Network
	if len(cfg.Segments) > 0 {
		fabric = netsim.NewFabric(s, cfg.Segments)
		n = fabric.Segment(cfg.ServerSegment)
	} else {
		n = netsim.New(s, cfg.Net)
	}
	costs := hw.DEC3000CPU()
	if cfg.CPUScale > 1 {
		costs = costs.Scale(cfg.CPUScale)
	}
	r := &Rig{Sim: s, Net: n, Fabric: fabric, cfg: cfg, costs: costs}

	// Device stack, bottom up: disks -> (stripe) -> CPU charging ->
	// (Presto -> CPU charging) -> UFS.
	srvCPU := sim.NewResource(s, 1)
	var raw disk.Device
	for i := 0; i < cfg.StripeDisks; i++ {
		r.Disks = append(r.Disks, disk.New(s, hw.RZ26(), cfg.Acct))
	}
	if cfg.StripeDisks > 1 {
		r.Stripe = disk.NewStripe(s, r.Disks, 8) // 64K stripe unit
		raw = r.Stripe
	} else {
		raw = r.Disks[0]
	}
	dev := disk.Device(server.NewChargedDevice(raw, srvCPU, costs.DriverTrip))
	if cfg.Presto {
		r.Presto = nvram.New(s, hw.Prestoserve(), dev, cfg.Acct)
		dev = server.NewChargedNVRAM(r.Presto, srvCPU, costs.DriverTrip,
			costs.NVRAMCopyPer8K, hw.Prestoserve().MaxIO)
	}
	fs, err := ufs.Format(s, dev, 1, cfg.Inodes, cfg.Acct)
	if err != nil {
		panic("rig: " + err.Error())
	}
	r.FS = fs

	scfg := server.Config{
		NumNfsds:      cfg.NumNfsds,
		Gathering:     cfg.Gathering,
		Costs:         costs,
		Accelerated:   cfg.Presto,
		RecordReplies: cfg.RecordReplies,
		CPU:           srvCPU,
	}
	if cfg.Gathering {
		if cfg.GatherOverride != nil {
			scfg.Gather = *cfg.GatherOverride
		} else {
			scfg.Gather = core.DefaultConfig(cfg.Presto, n.Params().Procrastinate)
		}
	}
	r.Server = server.New(s, n, fs, scfg)
	fs.ChargeMeta = func(p *sim.Proc) { r.Server.CPU().Use(p, costs.MetaUpdate) }
	if fabric != nil {
		fabric.Place("server", cfg.ServerSegment)
	}

	cnet := n
	if fabric != nil {
		cnet = fabric.Segment(cfg.ClientSegment)
	}
	for i := 0; i < cfg.Clients; i++ {
		name := fmt.Sprintf("client%d", i+1)
		r.Clients = append(r.Clients, client.New(s, cnet, name, "server", hw.DEC3000Client(), cfg.Biods, cfg.Acct))
		if fabric != nil {
			fabric.Place(name, cfg.ClientSegment)
		}
	}
	return r
}

// MarkInterval starts a measurement interval: disk and CPU counters are
// snapshotted so rates cover only the measured phase.
func (r *Rig) MarkInterval() {
	r.timeMark = r.Sim.Now()
	r.cpuMark = r.Server.CPUBusy()
	r.transMark, r.bytesMark = r.diskTotals()
}

func (r *Rig) diskTotals() (uint64, uint64) {
	var trans, bytes uint64
	for _, d := range r.Disks {
		trans += d.Stats().Trans()
		bytes += d.Stats().Bytes()
	}
	return trans, bytes
}

// IntervalStats reports CPU %, disk KB/s and disk trans/s over the
// interval since MarkInterval. Disk rates count spindle-level
// transactions, as the paper's tables do.
func (r *Rig) IntervalStats() (cpuPct, diskKBps, diskTps float64) {
	elapsed := r.Sim.Now().Sub(r.timeMark)
	if elapsed <= 0 {
		return 0, 0, 0
	}
	sec := elapsed.Seconds()
	trans, bytes := r.diskTotals()
	cpuPct = 100 * float64(r.Server.CPUBusy()-r.cpuMark) / float64(elapsed)
	diskKBps = float64(bytes-r.bytesMark) / 1024 / sec
	diskTps = float64(trans-r.transMark) / sec
	return cpuPct, diskKBps, diskTps
}
