// Package server implements the NFS server: a pool of nfsd processes
// draining a socket buffer, ONC RPC dispatch, a duplicate request cache,
// the standard fully-synchronous write path, and (optionally) the write
// gathering path provided by internal/core. CPU time is charged against a
// single CPU resource according to the hw.CPUParams cost table, which is
// what the paper's "server cpu util (%)" rows measure.
package server

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/nvram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/ufs"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// DefaultSockBuf is the server socket buffer bound: "DEC OSF/1 currently
// uses a maximum of .25M for socket buffering" (§9).
const DefaultSockBuf = 256 * 1024

// Config selects the server build.
type Config struct {
	// Name is the network endpoint name.
	Name string
	// NumNfsds is the daemon pool size (the paper's experiments use 8 for
	// file copies and 32 for LADDIS).
	NumNfsds int
	// Gathering enables the write gathering engine.
	Gathering bool
	// Gather is the engine policy (used when Gathering).
	Gather core.Config
	// Costs is the CPU cost table.
	Costs hw.CPUParams
	// Accelerated marks the filesystem's device as NVRAM-accelerated; the
	// server write layer queries this state and changes policy (§6.3).
	Accelerated bool
	// SockBufBytes bounds the receive socket buffer (0 = DefaultSockBuf).
	SockBufBytes int
	// DupCacheCap bounds the duplicate request cache entries.
	DupCacheCap int
	// RecordReplies keeps a log of every WRITE reply for crash audits.
	RecordReplies bool
	// BootVerifier, when non-zero, is a boot-instance id carried in the
	// verifier of every success reply. A rebooted server presents a new
	// id, which is how clients learn the dup cache is gone. Zero keeps the
	// classic empty AUTH_NULL verifier (and the classic wire sizes).
	BootVerifier uint64
	// CPU, when non-nil, is the CPU resource to charge; it lets callers
	// share one resource between the server and device charge wrappers
	// built before the server. A fresh resource is created otherwise.
	CPU *sim.Resource
}

// ReplyRecord is one audited WRITE reply (crash-consistency tests replay
// these against the remounted filesystem).
type ReplyRecord struct {
	Client string
	XID    uint32
	Ino    vfs.Ino
	Offset uint32
	Length uint32
	When   sim.Time
}

// Server is one NFS server instance attached to a network.
type Server struct {
	sim *sim.Sim
	cfg Config
	fs  *ufs.FS
	net *netsim.Network
	ep  *netsim.Endpoint
	cpu *sim.Resource

	engine *core.Engine
	locks  *core.VnodeLocks
	dup    *dupCache
	freePC []*parsedCall // parse record pool
	madePC int           // parse records ever made; all parked at quiesce
	procs  []*sim.Proc   // the nfsd pool, for crash injection

	// Per-server result scratch (see dispatch.go).
	scratchAttrStat   nfsproto.AttrStat
	scratchDirOpRes   nfsproto.DirOpRes
	scratchStatusRes  nfsproto.StatusRes
	scratchReadRes    nfsproto.ReadRes
	scratchReaddirRes nfsproto.ReaddirRes
	scratchStatfsRes  nfsproto.StatfsRes
	scratchDirEnts    []vfs.DirEntry
	readBufs          [][]byte
	enc               xdr.Encoder // reset onto each reply's wire buffer (see encoder)

	// Counters the experiments read.
	OpCounts    map[nfsproto.Proc]*stats.Counter
	RepliesSent uint64
	BadCalls    uint64
	DupDrops    uint64
	DupResends  uint64
	ReplyLog    []ReplyRecord

	// OnServe, when non-nil, observes every datagram an nfsd finishes
	// handling: which daemon, the decoded proc/xid (zero for undecodable
	// calls), when the request entered the socket buffer, and the
	// handling window. The observability plane turns these into server
	// spans with queue-wait attribution. Requests abandoned by a crash
	// mid-handling are not reported.
	OnServe func(nfsd int, proc nfsproto.Proc, xid uint32, queued, start, end sim.Time)

	cpuMark sim.Duration
}

// New attaches a server to net serving fs. The device stack must already
// be assembled (including any Presto board and CPU charge wrappers; see
// NewChargedDevice).
func New(s *sim.Sim, n *netsim.Network, fs *ufs.FS, cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "server"
	}
	if cfg.NumNfsds <= 0 {
		cfg.NumNfsds = 8
	}
	if cfg.SockBufBytes == 0 {
		cfg.SockBufBytes = DefaultSockBuf
	}
	if cfg.DupCacheCap == 0 {
		cfg.DupCacheCap = 1024
	}
	cpu := cfg.CPU
	if cpu == nil {
		cpu = sim.NewResource(s, 1)
	}
	srv := &Server{
		sim:      s,
		cfg:      cfg,
		fs:       fs,
		net:      n,
		ep:       n.Attach(cfg.Name, 0, cfg.SockBufBytes),
		cpu:      cpu,
		dup:      newDupCache(cfg.DupCacheCap),
		OpCounts: make(map[nfsproto.Proc]*stats.Counter),
	}
	if cfg.Gathering {
		srv.engine = core.NewEngine(s, fs, cfg.NumNfsds, cfg.Gather, srv.hunt)
		srv.locks = srv.engine.Locks()
	} else {
		srv.locks = core.NewVnodeLocks(s)
	}
	for i := 0; i < cfg.NumNfsds; i++ {
		id := i
		srv.procs = append(srv.procs, s.Spawn("nfsd", func(p *sim.Proc) { srv.nfsd(p, id) }))
	}
	return srv
}

// Procs returns the server's daemon processes; a crash injector kills
// them, losing whatever request state they held.
func (s *Server) Procs() []*sim.Proc { return s.procs }

// Name returns the server's endpoint name.
func (s *Server) Name() string { return s.cfg.Name }

// Endpoint returns the server's network endpoint (tests inspect drops).
func (s *Server) Endpoint() *netsim.Endpoint { return s.ep }

// Engine returns the gathering engine, nil on a standard server.
func (s *Server) Engine() *core.Engine { return s.engine }

// FS returns the served filesystem.
func (s *Server) FS() *ufs.FS { return s.fs }

// CPU returns the server CPU resource.
func (s *Server) CPU() *sim.Resource { return s.cpu }

// CPUBusy reports accumulated CPU busy time.
func (s *Server) CPUBusy() sim.Duration { return s.cpu.BusyTime() }

// ResetCPUInterval marks the start of a CPU measurement interval.
func (s *Server) ResetCPUInterval() { s.cpuMark = s.cpu.BusyTime() }

// CPUPercent reports CPU utilization over [interval start, now].
func (s *Server) CPUPercent(since sim.Time) float64 {
	now := s.sim.Now()
	el := now.Sub(since)
	if el <= 0 {
		return 0
	}
	return 100 * float64(s.cpu.BusyTime()-s.cpuMark) / float64(el)
}

// CheckWriteLedger is the gathered-WRITE identity at quiesce: the engine
// owes no reply and holds no detached transport handle, and every parse
// record the server made is back in its pool. The error names the server.
// A crashed server's records die with it; only a live one balances.
func (s *Server) CheckWriteLedger() error {
	owed, handles := 0, 0
	if s.engine != nil {
		owed, handles = s.engine.PendingReplies(), s.engine.HandlesHeld()
	}
	if out := s.madePC - len(s.freePC); owed != 0 || handles != 0 || out != 0 {
		return fmt.Errorf("%s owes %d replies, holds %d transport handles, has %d of %d parse records out of its pool",
			s.cfg.Name, owed, handles, out, s.madePC)
	}
	return nil
}

// DupBodies reports how many duplicate-cache entries hold a reference to
// a READ reply's data block (leak-check accounting).
func (s *Server) DupBodies() int { return s.dup.bodies }

// DropDupCache discards the duplicate request cache without a trace: the
// crash. The READ reply blocks it references are host memory, so they are
// released; whoever kills the nfsds calls it.
func (s *Server) DropDupCache() { s.dup.drop() }

// charge consumes d of server CPU on behalf of p.
func (s *Server) charge(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	s.cpu.Use(p, d)
}

// count records one completed operation of the given type moving n bytes.
func (s *Server) count(proc nfsproto.Proc, n int) {
	c, ok := s.OpCounts[proc]
	if !ok {
		c = &stats.Counter{}
		s.OpCounts[proc] = c
	}
	c.Add(n)
}

// ChargedDevice wraps a disk.Device so that every transaction issued
// through it charges driver-trip (and, for NVRAM boards, copy) CPU time to
// the issuing process. Stacking order matters: wrap the raw disk for drain
// trips, wrap the Presto board for the nfsd-visible costs.
type ChargedDevice struct {
	disk.Device
	cpu *sim.Resource
	// TripCost is charged per transaction.
	TripCost sim.Duration
	// CopyPer8K is charged per 8K written (NVRAM copy cost); zero for raw
	// disks.
	CopyPer8K sim.Duration
	// CopyLimit bounds the size eligible for copy charging (the board's
	// acceptance limit); larger writes are declined and cost a trip only.
	CopyLimit int
}

// NewChargedDevice wraps dev with per-transaction CPU charging.
func NewChargedDevice(dev disk.Device, cpu *sim.Resource, trip sim.Duration) *ChargedDevice {
	return &ChargedDevice{Device: dev, cpu: cpu, TripCost: trip}
}

// NewChargedNVRAM wraps a Presto board with trip + copy charging.
func NewChargedNVRAM(dev *nvram.Presto, cpu *sim.Resource, trip, copyPer8K sim.Duration, copyLimit int) *ChargedDevice {
	return &ChargedDevice{Device: dev, cpu: cpu, TripCost: trip, CopyPer8K: copyPer8K, CopyLimit: copyLimit}
}

// writeCost computes the CPU charge for an n-byte write.
func (c *ChargedDevice) writeCost(n int) sim.Duration {
	cost := c.TripCost
	if c.CopyPer8K > 0 && (c.CopyLimit == 0 || n <= c.CopyLimit) {
		cost += sim.Duration(int64(c.CopyPer8K) * int64(n) / 8192)
	}
	return cost
}

// WriteBlocks implements disk.Device.
func (c *ChargedDevice) WriteBlocks(p *sim.Proc, blk int64, data []byte) error {
	if cost := c.writeCost(len(data)); cost > 0 {
		c.cpu.Use(p, cost)
	}
	return c.Device.WriteBlocks(p, blk, data)
}

// WriteBufs implements disk.Device: the zero-copy path pays exactly the
// same modelled CPU costs as the byte path — the simulated 1994 kernel
// still does its driver trip and NVRAM board copy; only the simulator's
// own host-side memmoves were eliminated.
func (c *ChargedDevice) WriteBufs(p *sim.Proc, blk int64, bufs []*block.Buf) error {
	if cost := c.writeCost(len(bufs) * c.Device.BlockSize()); cost > 0 {
		c.cpu.Use(p, cost)
	}
	return c.Device.WriteBufs(p, blk, bufs)
}

// ReadBlocks implements disk.Device.
func (c *ChargedDevice) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	if c.TripCost > 0 {
		c.cpu.Use(p, c.TripCost)
	}
	return c.Device.ReadBlocks(p, blk, buf)
}
