// Package cluster assembles every testbed the engine runs: N LADDIS-class
// clients and M NFS server shards on one simulated medium or a bridged
// fabric. Each server exports its own filesystem (a distinct FSID); a
// deterministic shard map places working files on exports and routes
// every RPC to the server owning its handle. The paper's Tables 1-6 and
// Figures 1-3 ran on one server, which is a one-node cluster built with
// Config.PaperBoot.
//
// Nodes are built to be crashed: all volatile state (nfsd pool, socket
// buffer, buffer cache, dup cache) hangs off per-boot objects that a crash
// discards, while the platters — and, with Presto, the battery-backed
// NVRAM dirty map — survive and seed the reboot. internal/fault drives the
// crash/recovery schedule; this package owns the structural transitions.
package cluster

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/nvram"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/vfs"
)

// Config selects one cluster build.
type Config struct {
	// Net selects the LAN (hw.Ethernet() or hw.FDDI()).
	Net hw.NetParams
	// Segments, when non-empty, replaces the single Net medium with a
	// bridged fabric of named segments (see netsim.Fabric). Hosts land
	// on the root segment unless placed elsewhere by ServerSegment,
	// ClientSegment, a NodeConfig or a ClientGroup.
	Segments []netsim.SegmentSpec
	// ServerSegment places the server shards (default: the root).
	ServerSegment string
	// ClientSegment places the homogeneous client population when
	// ClientGroups is empty (default: the root).
	ClientSegment string
	// Clients and Servers are the node counts.
	Clients int
	Servers int
	// Presto interposes an NVRAM board in front of every server's disks.
	Presto bool
	// Gathering enables the write gathering engine on every server.
	Gathering bool
	// GatherOverride replaces the default engine policy when non-nil.
	GatherOverride *core.Config
	// StripeDisks is the spindle count per server (1 = lone RZ26).
	StripeDisks int
	// NumNfsds is the daemon pool size per server.
	NumNfsds int
	// Biods per client (0 = fully synchronous writes).
	Biods int
	// CPUScale divides every server CPU cost.
	CPUScale float64
	// Seed drives all randomness.
	Seed int64
	// Inodes sizes each server's inode table (default 512).
	Inodes int
	// RecordReplies keeps per-server WRITE reply logs for crash audits.
	RecordReplies bool
	// ClientRetries overrides the clients' RPC attempt bound; crash rigs
	// raise it so calls ride out a server outage (default 8).
	ClientRetries int
	// Nodes optionally deviates individual servers from the homogeneous
	// settings above (index-aligned; missing or nil entries keep the
	// defaults). Overrides survive crash/reboot cycles: a node rebuilds
	// its device stack and daemon pool from its own resolved settings.
	Nodes []NodeConfig
	// ClientGroups optionally replaces Clients/Biods/ClientRetries with
	// heterogeneous client populations. Client numbering is continuous
	// across groups (client1, client2, ...), so a single-group spec is
	// identical to the homogeneous form.
	ClientGroups []ClientGroup
	// Acct is the buffer ledger every pool in the cluster charges (nil =
	// the process-global one). The scenario engine gives each cell its
	// own, making the per-cell leak audit exact and immune to whatever
	// concurrently executing cells do to their own ledgers.
	Acct *block.Accounting
	// OnServerUp, when non-nil, fires every time a server instance starts
	// serving — initial boot, reboot, and adoption takeover — with the
	// instance and the NVRAM board (nil without Presto) of its boot.
	// Server instances are replaced wholesale on these transitions, so
	// observers use this to (re)install their hooks on the fresh objects.
	OnServerUp func(srv *server.Server, presto *nvram.Presto)
	// PaperBoot boots the paper's single server instead of a crashable
	// shard, and three things change: the node is named "server", its
	// replies carry no boot verifier (the classic AUTH_NULL verifier and
	// wire sizes), and nothing flushes the superblock and root inode at
	// t=0. That flush is a disk transaction, and the disk draws each
	// rotational delay from the shared random source, so it would move
	// every draw after it. Without the flush the image is not mountable
	// until something writes it, so a paper boot is not for crashing. It
	// requires one server.
	PaperBoot bool
}

// NodeConfig is one server's deviation from the cluster-wide settings.
// Nil fields inherit the homogeneous Config value.
type NodeConfig struct {
	Presto      *bool
	StripeDisks *int
	NumNfsds    *int
	Inodes      *int
	// Segment places this shard on a named fabric segment, overriding
	// Config.ServerSegment. Requires Config.Segments.
	Segment *string
}

// ClientGroup is one homogeneous client population.
type ClientGroup struct {
	// Count is the number of client hosts in the group.
	Count int
	// Biods per client (0 = fully synchronous writes).
	Biods int
	// MaxRetries overrides the RPC attempt bound (0 keeps the default).
	MaxRetries int
	// Segment places the group's hosts on a named fabric segment
	// (default: the root). Requires Config.Segments.
	Segment string
}

// AdoptedExport is a dead peer's filesystem served by a surviving node
// after a shard failover: the peer's platters (and battery-backed NVRAM
// dirty map, already replayed) mounted under the adopter, with a fresh
// server instance on its own endpoint sharing the adopter's CPU. The
// export keeps its FSID, so every file handle born on the dead shard
// stays valid — clients just reroute.
type AdoptedExport struct {
	FSID   uint32
	From   *Node // the dead shard the platters came from
	FS     *ufs.FS
	Server *server.Server
	Presto *nvram.Presto
}

// Node is one server shard with its full device stack.
type Node struct {
	Name  string
	Index int
	FSID  uint32
	// Boots counts completed boot cycles (1 after New).
	Boots int
	// Down is true between Crash and the end of Reboot.
	Down bool
	// Rebooting is true while a Reboot is remounting (Down still true):
	// the window where a failover must not adopt the same platters.
	Rebooting bool
	// RecoveredBlocks totals NVRAM dirty blocks replayed onto the
	// platters across all reboots (0 without Presto).
	RecoveredBlocks int
	// DroppedNVRAMBlocks totals dirty blocks a lying NVRAM board discarded
	// at a power event instead of replaying (the acked data it lost).
	DroppedNVRAMBlocks int

	Server *server.Server
	FS     *ufs.FS
	Disks  []*disk.Disk
	Stripe *disk.Stripe
	Presto *nvram.Presto
	// Adopted lists dead peers' exports this node took over (Adopt). They
	// are part of the node's volatile serving state: a crash of the
	// adopter drops them (the platters survive on the dead peer, but
	// nobody serves them again).
	Adopted []*AdoptedExport

	c *Cluster
	// net is the segment this shard's NIC attaches to (the cluster-wide
	// network without a fabric).
	net *netsim.Network
	// mkfs is the boot-time image flusher (only meaningful for the first
	// boot; killed by Crash like every other host process).
	mkfs *sim.Proc

	// Resolved per-node build settings (Config defaults plus this node's
	// NodeConfig overrides); Crash/Reboot rebuilds from these.
	presto      bool
	stripeDisks int
	numNfsds    int
	inodes      int
	segment     string

	// Measurement marks (IntervalStats).
	cpuMark   sim.Duration
	transMark uint64
	bytesMark uint64
}

// Cluster is an assembled scale-out testbed.
type Cluster struct {
	Sim *sim.Sim
	// Net is the servers' default segment: the lone medium without a
	// fabric, the ServerSegment (or root) network with one.
	Net *netsim.Network
	// Fabric is the bridged segment tree (nil without Config.Segments).
	Fabric  *netsim.Fabric
	Nodes   []*Node
	Clients []*client.Client
	Shards  *ShardMap

	cfg      Config
	costs    hw.CPUParams
	timeMark sim.Time
}

// New builds the full cluster for cfg. Unless cfg.PaperBoot, every node's
// on-disk image is made mountable immediately (superblock and root inode
// flushed at t=0), so a crash injector may fire at any time.
func New(cfg Config) *Cluster {
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	if cfg.Servers == 0 {
		cfg.Servers = 1
	}
	if cfg.PaperBoot && cfg.Servers != 1 {
		panic(fmt.Sprintf("cluster: the paper boot builds one server, not %d", cfg.Servers))
	}
	if cfg.StripeDisks == 0 {
		cfg.StripeDisks = 1
	}
	if cfg.NumNfsds == 0 {
		cfg.NumNfsds = 8
	}
	if cfg.Inodes == 0 {
		cfg.Inodes = 512
	}
	s := sim.New(cfg.Seed)
	costs := hw.DEC3000CPU()
	if cfg.CPUScale > 1 {
		costs = costs.Scale(cfg.CPUScale)
	}
	c := &Cluster{
		Sim:   s,
		cfg:   cfg,
		costs: costs,
	}
	if len(cfg.Segments) > 0 {
		c.Fabric = netsim.NewFabric(s, cfg.Segments)
		c.Net = c.Fabric.Segment(cfg.ServerSegment)
	} else {
		c.Net = netsim.New(s, cfg.Net)
	}

	for i := 0; i < cfg.Servers; i++ {
		n := &Node{
			Name:        c.serverName(i),
			Index:       i,
			FSID:        uint32(i + 1),
			c:           c,
			presto:      cfg.Presto,
			stripeDisks: cfg.StripeDisks,
			numNfsds:    cfg.NumNfsds,
			inodes:      cfg.Inodes,
			segment:     cfg.ServerSegment,
		}
		if i < len(cfg.Nodes) {
			o := cfg.Nodes[i]
			if o.Presto != nil {
				n.presto = *o.Presto
			}
			if o.StripeDisks != nil && *o.StripeDisks > 0 {
				n.stripeDisks = *o.StripeDisks
			}
			if o.NumNfsds != nil && *o.NumNfsds > 0 {
				n.numNfsds = *o.NumNfsds
			}
			if o.Inodes != nil && *o.Inodes > 0 {
				n.inodes = *o.Inodes
			}
			if o.Segment != nil && *o.Segment != "" {
				n.segment = *o.Segment
			}
		}
		n.net = c.Net
		if c.Fabric != nil {
			n.net = c.Fabric.Segment(n.segment)
			c.Fabric.Place(n.Name, n.segment)
		}
		for d := 0; d < n.stripeDisks; d++ {
			n.Disks = append(n.Disks, disk.New(s, hw.RZ26(), cfg.Acct))
		}
		if n.stripeDisks > 1 {
			n.Stripe = disk.NewStripe(s, n.Disks, 8) // 64K stripe unit
		}
		dev, cpu := n.buildDeviceStack()
		fs, err := ufs.Format(s, dev, n.FSID, n.inodes, cfg.Acct)
		if err != nil {
			panic("cluster: " + err.Error())
		}
		n.FS = fs
		n.startServer(fs, cpu)
		if !cfg.PaperBoot {
			// Make the fresh image crash-mountable: flush the superblock and
			// the root inode before any load arrives. The flusher is part of
			// the node's volatile state — a crash in the first instants must
			// kill it too, or it would land platter writes posthumously.
			n.mkfs = s.Spawn(n.Name+"-mkfs", func(p *sim.Proc) {
				// A storage fault can fail the initial flush; retry briefly
				// (consuming transient media-error rules) before giving up.
				for attempt := 0; ; attempt++ {
					err := fs.WriteSuper(p)
					if err == nil {
						err = fs.Fsync(p, fs.Root(), vfs.FWrite|vfs.FWriteMetadata)
					}
					if err == nil {
						return
					}
					if attempt >= 4 {
						panic("cluster: initial root flush: " + err.Error())
					}
					p.Sleep(10 * sim.Millisecond)
				}
			})
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.Shards = newShardMap(c.Nodes)

	groups := cfg.ClientGroups
	if len(groups) == 0 {
		groups = []ClientGroup{{Count: cfg.Clients, Biods: cfg.Biods,
			MaxRetries: cfg.ClientRetries, Segment: cfg.ClientSegment}}
	}
	idx := 0
	for _, g := range groups {
		cnet := c.Net
		if c.Fabric != nil {
			cnet = c.Fabric.Segment(g.Segment)
		}
		for i := 0; i < g.Count; i++ {
			idx++
			name := fmt.Sprintf("client%d", idx)
			cli := client.New(s, cnet, name, c.Nodes[0].Name,
				hw.DEC3000Client(), g.Biods, cfg.Acct)
			if c.Fabric != nil {
				c.Fabric.Place(name, g.Segment)
			}
			for _, n := range c.Nodes {
				cli.AddRoute(n.FSID, n.Name)
			}
			if g.MaxRetries > 0 {
				cli.MaxRetries = g.MaxRetries
			}
			c.Clients = append(c.Clients, cli)
		}
	}
	return c
}

func (c *Cluster) serverName(i int) string {
	if c.cfg.PaperBoot {
		return "server"
	}
	return fmt.Sprintf("server%d", i+1)
}

// mountRetry mounts with a bounded retry: a transient media error during
// the superblock or inode-region read is absorbed the way disk firmware
// absorbs it (retry the transfer); a persistent failure surfaces to the
// caller. Healthy devices mount on the first attempt, identically to
// before.
func mountRetry(s *sim.Sim, p *sim.Proc, dev disk.Device, acct *block.Accounting) (*ufs.FS, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var fs *ufs.FS
		fs, err = ufs.Mount(s, p, dev, acct)
		if err == nil {
			return fs, nil
		}
	}
	return nil, err
}

// raw returns the bottom of the node's device stack (the persistent part).
func (n *Node) raw() disk.Device {
	if n.Stripe != nil {
		return n.Stripe
	}
	return n.Disks[0]
}

// buildDeviceStack assembles the per-boot device stack over the persistent
// disks: CPU charge wrappers and, when configured, a fresh Presto board.
// It returns the nfsd-visible device and the boot's CPU resource.
func (n *Node) buildDeviceStack() (disk.Device, *sim.Resource) {
	s := n.c.Sim
	costs := n.c.costs
	cpu := sim.NewResource(s, 1)
	dev := disk.Device(server.NewChargedDevice(n.raw(), cpu, costs.DriverTrip))
	if n.presto {
		n.Presto = nvram.New(s, hw.Prestoserve(), dev, n.c.cfg.Acct)
		dev = server.NewChargedNVRAM(n.Presto, cpu, costs.DriverTrip,
			costs.NVRAMCopyPer8K, hw.Prestoserve().MaxIO)
	}
	return dev, cpu
}

// newServer builds one server instance over fs — a node's boot or an
// adopted export's takeover instance. It is the single source of the
// config defaulting, gather policy, boot-verifier formula (index and
// boot count identify the export's instance; clients detect the change
// and know the dup cache died; the paper boot sends none) and metadata
// charge hook, so rebooted and adopted servers can never silently
// diverge.
func (c *Cluster) newServer(net *netsim.Network, name string, fs *ufs.FS, cpu *sim.Resource, nfsds int, presto bool, index, boots int) *server.Server {
	cfg := c.cfg
	costs := c.costs
	scfg := server.Config{
		Name:          name,
		NumNfsds:      nfsds,
		Gathering:     cfg.Gathering,
		Costs:         costs,
		Accelerated:   presto,
		RecordReplies: cfg.RecordReplies,
		CPU:           cpu,
	}
	if !cfg.PaperBoot {
		scfg.BootVerifier = uint64(index+1)<<32 | uint64(boots+1)
	}
	if cfg.Gathering {
		if cfg.GatherOverride != nil {
			scfg.Gather = *cfg.GatherOverride
		} else {
			scfg.Gather = core.DefaultConfig(presto, net.Params().Procrastinate)
		}
	}
	srv := server.New(c.Sim, net, fs, scfg)
	fs.ChargeMeta = func(p *sim.Proc) { srv.CPU().Use(p, costs.MetaUpdate) }
	return srv
}

// startServer attaches a fresh server instance (a boot) over fs.
func (n *Node) startServer(fs *ufs.FS, cpu *sim.Resource) {
	n.Server = n.c.newServer(n.net, n.Name, fs, cpu, n.numNfsds, n.presto, n.Index, n.Boots)
	n.Boots++
	n.Down = false
	if n.c.cfg.OnServerUp != nil {
		n.c.cfg.OnServerUp(n.Server, n.Presto)
	}
}

// Crash kills the node instantaneously: nfsd state, socket buffers, the
// buffer cache and the dup cache are lost; the platters and the NVRAM
// dirty map survive. In-flight disk transfers die mid-air (their bytes
// never land) exactly as a power failure would lose them.
func (n *Node) Crash() {
	if n.Down {
		return
	}
	s := n.c.Sim
	for _, pr := range n.Server.Procs() {
		s.Kill(pr)
	}
	if n.Presto != nil {
		for _, pr := range n.Presto.Procs() {
			s.Kill(pr)
		}
	}
	s.Kill(n.mkfs)
	n.net.Detach(n.Name)
	// Adopted exports are volatile serving state: the dead peers' platters
	// survive (they are the peers'), but this host's server instances,
	// caches and replacement NVRAM boards die with it, and nothing brings
	// the exports back — a rebooted adopter does not re-adopt.
	for _, ex := range n.Adopted {
		for _, pr := range ex.Server.Procs() {
			s.Kill(pr)
		}
		if ex.Presto != nil {
			for _, pr := range ex.Presto.Procs() {
				s.Kill(pr)
			}
			// The replacement board sits on the dead peer's tray: its
			// battery-backed dirty map survives this host's crash, carried
			// by the peer again (and replayed if that box ever powers on).
			ex.From.Presto = ex.Presto
			ex.Presto = nil
		}
		n.net.Detach(ex.Server.Endpoint().Name)
		ex.Server.DropDupCache()
		ex.FS.DropCaches()
		ex.FS = nil
		ex.Server = nil
	}
	n.Adopted = nil
	// The in-core filesystem dies with the host; Reboot remounts from the
	// platters. DropCaches releases the buffer cache's block references
	// (host memory is gone; contents shared with the platter store and the
	// battery-backed NVRAM dirty map live on there), and so are the READ
	// reply blocks the duplicate cache kept. The old Presto board object
	// survives only as the carrier of that dirty map.
	n.Server.DropDupCache()
	n.FS.DropCaches()
	n.FS = nil
	n.Server = nil
	n.Down = true
}

// Reboot brings the node back: the NVRAM recovery flush replays the dirty
// map onto the platters (battery-backed, no host time), then the boot
// remounts the filesystem — reading the inode region back at real device
// speed, which is the recovery time the experiment reports — and starts a
// fresh server instance with a new boot verifier. The caller provides the
// boot process.
func (n *Node) Reboot(p *sim.Proc) error {
	if !n.Down {
		return fmt.Errorf("cluster: reboot of running node %s", n.Name)
	}
	n.Rebooting = true
	defer func() { n.Rebooting = false }()
	if n.Presto != nil {
		if n.Presto.Lying() {
			// A lying board's "battery-backed" dirty map evaporates at the
			// power event: the acked writes it held are gone.
			n.DroppedNVRAMBlocks += n.Presto.DropDirty()
		} else {
			// The replay targets the same device bottom the new stack mounts
			// (disk and stripe both take platter-level injections).
			n.RecoveredBlocks += n.Presto.Recover(n.raw().(nvram.BlockInjector))
		}
		n.Presto = nil
	}
	dev, cpu := n.buildDeviceStack()
	fs, err := mountRetry(n.c.Sim, p, dev, n.c.cfg.Acct)
	if err != nil {
		return fmt.Errorf("cluster: remount %s: %w", n.Name, err)
	}
	n.FS = fs
	n.startServer(fs, cpu)
	return nil
}

// Adopt mounts a dead peer's disks under this node — the shard-failover
// recovery step. The peer's battery-backed NVRAM dirty map replays onto
// its platters first (the board travels with the disk tray), then the
// adopter remounts the filesystem at device speed and starts a dedicated
// server instance for it on its own endpoint, sharing this node's CPU:
// the takeover is free in hardware but every adopted RPC now contends
// with the adopter's own load. The export keeps the dead shard's FSID,
// so existing file handles stay valid; the cluster reroutes every client
// and reassigns shard-map ownership. The caller provides the takeover
// process (its elapsed time is the remount, as for Reboot).
func (n *Node) Adopt(p *sim.Proc, dead *Node) error {
	if n.Down {
		return fmt.Errorf("cluster: %s cannot adopt while down", n.Name)
	}
	if !dead.Down {
		return fmt.Errorf("cluster: adopting running node %s", dead.Name)
	}
	if dead.Presto != nil {
		if dead.Presto.Lying() {
			dead.DroppedNVRAMBlocks += dead.Presto.DropDirty()
		} else {
			dead.RecoveredBlocks += dead.Presto.Recover(dead.raw().(nvram.BlockInjector))
		}
		dead.Presto = nil
	}
	s := n.c.Sim
	costs := n.c.costs
	cpu := n.Server.CPU()
	dev := disk.Device(server.NewChargedDevice(dead.raw(), cpu, costs.DriverTrip))
	ex := &AdoptedExport{FSID: dead.FSID, From: dead}
	if dead.presto {
		ex.Presto = nvram.New(s, hw.Prestoserve(), dev, n.c.cfg.Acct)
		dev = server.NewChargedNVRAM(ex.Presto, cpu, costs.DriverTrip,
			costs.NVRAMCopyPer8K, hw.Prestoserve().MaxIO)
	}
	fs, err := mountRetry(s, p, dev, n.c.cfg.Acct)
	if err != nil {
		return fmt.Errorf("cluster: adopt %s on %s: %w", dead.Name, n.Name, err)
	}
	ex.FS = fs
	// The adoption is the export's next boot — same verifier formula as a
	// reboot, so clients that talked to the dead shard see the change and
	// know the dup cache is gone.
	name := fmt.Sprintf("%s+%s", n.Name, dead.Name)
	ex.Server = n.c.newServer(n.net, name, fs, cpu, dead.numNfsds, dead.presto, dead.Index, dead.Boots)
	// The adopted export lives on the adopter's segment now; re-placing
	// it repoints every other segment's route at the survivor, so the
	// dead shard's handles stay reachable across bridges.
	if n.c.Fabric != nil {
		n.c.Fabric.Place(name, n.segment)
	}
	// The new endpoint rides the adopter's NIC: if that attachment is
	// currently severed, the adopted export is born cut off too.
	if n.Server.Endpoint().LinkDown() {
		n.net.SetLinkDown(name, true)
	}
	n.Adopted = append(n.Adopted, ex)
	n.c.Shards.reassign(dead.FSID, n)
	for _, cli := range n.c.Clients {
		cli.AddRoute(dead.FSID, name)
	}
	if n.c.cfg.OnServerUp != nil {
		n.c.cfg.OnServerUp(ex.Server, ex.Presto)
	}
	return nil
}

// SetHostLinkDown severs or restores a host NIC by name, wherever the
// host lives: on the fabric it sweeps every segment (unknown names are
// a no-op per segment), without one it acts on the lone medium.
func (c *Cluster) SetHostLinkDown(name string, down bool) {
	if c.Fabric != nil {
		c.Fabric.SetLinkDown(name, down)
		return
	}
	c.Net.SetLinkDown(name, down)
}

// SetUplinkDown severs or restores a fabric segment's uplink port,
// partitioning the whole segment from the rest of the tree. It reports
// whether the segment exists and has an uplink (false without a fabric
// or for the root).
func (c *Cluster) SetUplinkDown(segment string, down bool) bool {
	if c.Fabric == nil {
		return false
	}
	return c.Fabric.SetUplinkDown(segment, down)
}

// FSByFSID resolves the mounted filesystem currently serving an export:
// the owning node's own filesystem, or the adopter's mounted copy after
// a failover. Nil when nobody serves it (the owner is down with no
// adopter, or the adopter crashed).
func (c *Cluster) FSByFSID(fsid uint32) *ufs.FS {
	n := c.Shards.byFSID[fsid]
	if n == nil {
		return nil
	}
	if n.FSID == fsid {
		return n.FS
	}
	for _, ex := range n.Adopted {
		if ex.FSID == fsid {
			return ex.FS
		}
	}
	return nil
}

// Roots returns one exported root handle per node, in node order — the
// shard roots a sharded workload spreads its files across.
func (c *Cluster) Roots() []nfsproto.FH {
	roots := make([]nfsproto.FH, len(c.Nodes))
	for i, n := range c.Nodes {
		roots[i] = nfsproto.NewFH(n.FSID, uint64(n.FS.Root()), 0)
	}
	return roots
}

// AccountedRefs sums the buffer references the cluster's long-lived
// structures legitimately retain — buffer caches, platter stores, NVRAM
// dirty maps and the READ reply blocks in duplicate caches, own and
// adopted, plus the reply body each client holds as its READ scratch.
// After a full quiesce, the process block-reference total minus the
// pre-build baseline must equal exactly this sum: any surplus is a
// reference leaked through an unwind path, any deficit a double release.
// The scenario runner audits it per cell.
func (c *Cluster) AccountedRefs() int64 {
	var n int64
	for _, node := range c.Nodes {
		if node.FS != nil {
			n += int64(node.FS.CachedBufs())
		}
		if node.Server != nil {
			n += int64(node.Server.DupBodies())
		}
		for _, d := range node.Disks {
			n += int64(d.StoredBufs())
		}
		if node.Presto != nil {
			n += int64(node.Presto.DirtyBufs())
		}
		for _, ex := range node.Adopted {
			if ex.FS != nil {
				n += int64(ex.FS.CachedBufs())
			}
			if ex.Server != nil {
				n += int64(ex.Server.DupBodies())
			}
			if ex.Presto != nil {
				n += int64(ex.Presto.DirtyBufs())
			}
		}
	}
	for _, cli := range c.Clients {
		n += int64(cli.HeldBodies())
	}
	return n
}

// MarkInterval starts a measurement interval on every node.
func (c *Cluster) MarkInterval() {
	c.timeMark = c.Sim.Now()
	for _, n := range c.Nodes {
		if n.Server != nil {
			n.cpuMark = n.Server.CPUBusy()
		} else {
			n.cpuMark = 0
		}
		n.transMark, n.bytesMark = n.diskTotals()
	}
}

func (n *Node) diskTotals() (uint64, uint64) {
	var trans, bytes uint64
	for _, d := range n.Disks {
		trans += d.Stats().Trans()
		bytes += d.Stats().Bytes()
	}
	return trans, bytes
}

// Stats is the cluster-wide interval roll-up.
type Stats struct {
	// CPUMeanPercent and CPUMaxPercent summarize server CPU load across
	// shards; skew between them exposes an unbalanced shard map. On one
	// server they are equal.
	CPUMeanPercent float64
	CPUMaxPercent  float64
	// DiskKBps and DiskTps count spindle-level transfers, as the paper's
	// tables do.
	DiskKBps float64
	DiskTps  float64
	// RebootsSeen sums boot-verifier changes clients observed.
	RebootsSeen uint64
}

// IntervalStats reports aggregate rates since MarkInterval. A node
// rebooted mid-interval reports the CPU busy time of its current boot
// only (clamped, never negative).
func (c *Cluster) IntervalStats() Stats {
	elapsed := c.Sim.Now().Sub(c.timeMark)
	var st Stats
	if elapsed <= 0 {
		return st
	}
	sec := elapsed.Seconds()
	for _, n := range c.Nodes {
		var cpu float64
		if n.Server != nil {
			busy := n.Server.CPUBusy() - n.cpuMark
			if busy < 0 {
				busy = n.Server.CPUBusy()
			}
			cpu = 100 * float64(busy) / float64(elapsed)
		}
		trans, bytes := n.diskTotals()
		st.CPUMeanPercent += cpu
		st.CPUMaxPercent = max(st.CPUMaxPercent, cpu)
		st.DiskKBps += float64(bytes-n.bytesMark) / 1024 / sec
		st.DiskTps += float64(trans-n.transMark) / sec
	}
	st.CPUMeanPercent /= float64(len(c.Nodes))
	for _, cli := range c.Clients {
		st.RebootsSeen += cli.RebootsSeen
	}
	return st
}
