// Package cluster assembles every testbed the engine runs: N LADDIS-class
// clients and M NFS server shards on a netsim.Fabric, of which the paper's
// one shared LAN is a fabric of one segment. Each server exports its own
// filesystem (a distinct FSID); client.ShardIndex places working files on
// exports, and every RPC routes to the server owning its handle's FSID.
// The paper's Tables 1-6 and Figures 1-3 ran on one server, which is a
// one-node cluster built with Config.PaperBoot.
//
// Nodes are built to be crashed: all volatile state (nfsd pool, socket
// buffer, buffer cache, dup cache) hangs off per-boot objects that a crash
// discards, while the platters — and, with Presto, the battery-backed
// NVRAM dirty map — survive and seed the reboot. internal/fault drives the
// crash/recovery schedule; this package owns the structural transitions.
package cluster

import (
	"cmp"
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
	// Net selects the LAN (hw.Ethernet() or hw.FDDI()) of a cluster
	// without Segments: a fabric of one segment, named "medium".
	Net hw.NetParams
	// Segments, when non-empty, declares the fabric's named segments (see
	// netsim.Fabric) instead. Hosts land on the root segment unless placed
	// elsewhere by ServerSegment, a NodeConfig or a ClientGroup.
	Segments []netsim.SegmentSpec
	// ServerSegment places the server shards (default: the root).
	ServerSegment string
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
	// NumNfsds is the daemon pool size per server (default 8).
	NumNfsds int
	// Biods per client (0 = fully synchronous writes).
	Biods int
	// CPUScale divides every server CPU cost.
	CPUScale float64
	// Seed drives all randomness.
	Seed int64
	// Inodes sizes each server's inode table (default 512).
	Inodes int
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

// NodeConfig is one server's deviation from the cluster-wide settings,
// and a spec's topology.servers.nodes entry. Nil fields inherit the
// homogeneous Config value; Config.Shard resolves the two.
type NodeConfig struct {
	Presto      *bool `json:"presto,omitempty"`
	StripeDisks *int  `json:"stripe_disks,omitempty"`
	Nfsds       *int  `json:"nfsds,omitempty"`
	Inodes      *int  `json:"inodes,omitempty"`
	// Segment places this shard on a named fabric segment, overriding
	// Config.ServerSegment.
	Segment *string `json:"segment,omitempty"`
}

// ClientGroup is one homogeneous client population, and a spec's
// topology.clients entry.
type ClientGroup struct {
	// Count is the number of client hosts in the group.
	Count int `json:"count"`
	// Biods per client (0 = fully synchronous writes).
	Biods int `json:"biods,omitempty"`
	// MaxRetries overrides the RPC attempt bound (0 keeps the client
	// default of 8); crash scenarios raise it to ride out outages.
	MaxRetries int `json:"max_retries,omitempty"`
	// Segment places the group's hosts on a named fabric segment
	// (default: the root).
	Segment string `json:"segment,omitempty"`
}

// Shard is one server's resolved build settings. Every boot of its
// platters, an adopter's too, builds from them.
type Shard struct {
	Presto      bool
	StripeDisks int
	Nfsds       int
	Inodes      int
	Segment     string
}

// Shard resolves server i's settings: its NodeConfig override, where one
// is set, over the homogeneous value, and the defaults (1 spindle, 8
// nfsds, 512 inodes) where neither is. New builds each node from it, and
// a spec's fault validation checks its targets against it.
func (cfg *Config) Shard(i int) Shard {
	sh := Shard{Presto: cfg.Presto, StripeDisks: cfg.StripeDisks, Nfsds: cfg.NumNfsds,
		Inodes: cfg.Inodes, Segment: cfg.ServerSegment}
	if i < len(cfg.Nodes) {
		o := cfg.Nodes[i]
		sh.Presto = deref(o.Presto, sh.Presto)
		sh.StripeDisks = deref(o.StripeDisks, sh.StripeDisks)
		sh.Nfsds = deref(o.Nfsds, sh.Nfsds)
		sh.Inodes = deref(o.Inodes, sh.Inodes)
		sh.Segment = deref(o.Segment, sh.Segment)
	}
	sh.StripeDisks = cmp.Or(sh.StripeDisks, 1)
	sh.Nfsds = cmp.Or(sh.Nfsds, 8)
	sh.Inodes = cmp.Or(sh.Inodes, 512)
	return sh
}

// deref is *p, or def when p is nil.
func deref[T any](p *T, def T) T {
	if p == nil {
		return def
	}
	return *p
}

// Export is one filesystem a node serves: its home node's platters,
// mounted under a server instance on an endpoint of its own. A node's own
// export is embedded in the Node; after a shard failover a survivor also
// serves the dead peer's, on the adopter's NIC and CPU. The export keeps
// its home's FSID wherever it is served, so every file handle born on the
// home shard stays valid — clients just reroute. Boot, crash, the ledgers
// and the route table treat both kinds alike.
type Export struct {
	FSID uint32
	// Name is the endpoint the export's server answers on: the node's own
	// name, or adopter+home for an adopted export.
	Name string
	// Home is the node whose platters (and NVRAM tray) the export mounts.
	Home *Node
	// FS, Server and Presto are the current boot's (nil while the serving
	// node is down). A down home's Presto is the board left on its tray,
	// the carrier of the battery-backed dirty map its next boot replays.
	FS     *ufs.FS
	Server *server.Server
	Presto *nvram.Presto
	// mkfs is the image flusher of a freshly formatted export (New's boot
	// only; a crash kills it with the export's other processes).
	mkfs *sim.Proc
}

// Node is one server shard with its full device stack. Its own export is
// embedded: n.Name, n.FSID, n.FS, n.Server and n.Presto are the export's.
type Node struct {
	Export
	Index int
	// Boots counts the node's completed boot cycles (1 after New); an
	// adoption of its platters is not one.
	Boots int
	// Down is true between Crash and the end of Reboot.
	Down bool
	// Rebooting is true while a Reboot is remounting (Down still true):
	// the window where a failover must not adopt the same platters.
	Rebooting bool
	// RecoveredBlocks totals NVRAM dirty blocks replayed onto the
	// platters across every boot of them, reboot or adoption (0 without
	// Presto).
	RecoveredBlocks int
	// DroppedNVRAMBlocks totals dirty blocks a lying NVRAM board discarded
	// at a power event instead of replaying (the acked data it lost).
	DroppedNVRAMBlocks int

	Disks  []*disk.Disk
	Stripe *disk.Stripe
	// Exports lists every filesystem the node serves: its own first
	// (&n.Export), then the dead peers' it adopted, in adoption order.
	// Adopted exports are volatile serving state: a crash of the adopter
	// drops them (the platters survive on the dead peer, but nobody
	// serves them again).
	Exports []*Export

	c *Cluster
	// net is the segment this shard's NIC attaches to.
	net *netsim.Network

	// Shard is the node's resolved build settings (Config.Shard).
	Shard Shard

	// Measurement marks (IntervalStats).
	cpuMark   sim.Duration
	transMark uint64
	bytesMark uint64
}

// Cluster is an assembled scale-out testbed.
type Cluster struct {
	Sim *sim.Sim
	// Fabric is the cell's network: Config.Segments joined by uplink
	// bridges, or the one segment of Config.Net.
	Fabric  *netsim.Fabric
	Nodes   []*Node
	Clients []*client.Client
	// Pages is the cell's one table of pattern pages, shared by every
	// client: a table per client would build the same pages once per host.
	Pages *client.Pages

	cfg      Config
	costs    hw.CPUParams
	timeMark sim.Time
	// owner maps each export's FSID to its current record: the home
	// node's own, or the adopter's after a failover (handles keep their
	// FSID across the migration).
	owner map[uint32]*Export
	// routes maps each export's FSID to the endpoint serving it. It is
	// every client's route table (client.Client.Routes): one map, so a
	// failover rewrites one entry.
	routes map[uint32]string
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
	s := sim.New(cfg.Seed)
	costs := hw.DEC3000CPU()
	if cfg.CPUScale > 1 {
		costs = costs.Scale(cfg.CPUScale)
	}
	c := &Cluster{
		Sim:    s,
		cfg:    cfg,
		costs:  costs,
		Pages:  client.NewPages(cfg.Acct),
		owner:  make(map[uint32]*Export, cfg.Servers),
		routes: make(map[uint32]string, cfg.Servers),
	}
	segs := cfg.Segments
	if len(segs) == 0 {
		segs = []netsim.SegmentSpec{{Name: "medium", Params: cfg.Net}}
	}
	c.Fabric = netsim.NewFabric(s, segs)
	for _, name := range c.Fabric.Names() {
		c.Fabric.Segment(name).SetAccounting(cfg.Acct)
	}

	for i := 0; i < cfg.Servers; i++ {
		n := &Node{
			Export: Export{FSID: uint32(i + 1), Name: c.serverName(i)},
			Index:  i,
			Shard:  cfg.Shard(i),
			c:      c,
		}
		n.Home = n
		n.Exports = []*Export{&n.Export}
		n.net = c.Fabric.Segment(n.Shard.Segment)
		for d := 0; d < n.Shard.StripeDisks; d++ {
			n.Disks = append(n.Disks, disk.New(s, hw.RZ26(), cfg.Acct))
		}
		if len(n.Disks) > 1 {
			n.Stripe = disk.NewStripe(s, n.Disks, 8) // 64K stripe unit
		}
		// The first boot formats where a later one mounts; the stack and
		// the server start are the boot path's.
		cpu := sim.NewResource(s, 1)
		fs, err := ufs.Format(s, n.buildDeviceStack(cpu), n.FSID, n.Shard.Inodes, cfg.Acct)
		if err != nil {
			panic("cluster: " + err.Error())
		}
		n.serve(&n.Export, fs, cpu)
		n.Boots++
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

	groups := cfg.ClientGroups
	if len(groups) == 0 {
		groups = []ClientGroup{{Count: cfg.Clients, Biods: cfg.Biods, MaxRetries: cfg.ClientRetries}}
	}
	// One free list of pending-call records serves every client: a record
	// is busy only while its call is in flight.
	calls := new(client.CallPool)
	total := 0
	for _, g := range groups {
		total += g.Count
	}
	c.Clients = make([]*client.Client, 0, total)
	idx := 0
	for _, g := range groups {
		cnet := c.Fabric.Segment(g.Segment)
		for i := 0; i < g.Count; i++ {
			idx++
			name := fmt.Sprintf("client%d", idx)
			cli := client.New(s, cnet, name, c.Nodes[0].Name,
				hw.DEC3000Client(), g.Biods, cfg.Acct)
			cli.Pages, cli.CallPool = c.Pages, calls
			cli.Routes = c.routes
			c.Fabric.Place(name, g.Segment)
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

// replayTray plays the NVRAM board left on the node's tray onto its
// platters (battery-backed, no host time) and takes the board off: a
// lying board's "battery-backed" dirty map evaporates at the power event
// instead, and the acked writes it held are counted as dropped. The
// replay targets the same device bottom the next stack mounts (disk and
// stripe both take platter-level injections).
func (n *Node) replayTray() {
	if n.Presto == nil {
		return
	}
	if n.Presto.Lying() {
		n.DroppedNVRAMBlocks += n.Presto.DropDirty()
	} else {
		n.RecoveredBlocks += n.Presto.Recover(n.raw().(nvram.BlockInjector))
	}
	n.Presto = nil
}

// buildDeviceStack assembles the export's per-boot device stack over its
// home's persistent disks: CPU charge wrappers on cpu and, when the home
// is configured with one, a fresh Presto board (ex.Presto). It returns
// the nfsd-visible device.
func (ex *Export) buildDeviceStack(cpu *sim.Resource) disk.Device {
	home := ex.Home
	costs := home.c.costs
	dev := disk.Device(server.NewChargedDevice(home.raw(), cpu, costs.DriverTrip))
	if home.Shard.Presto {
		ex.Presto = nvram.New(home.c.Sim, hw.Prestoserve(), dev, home.c.cfg.Acct)
		dev = server.NewChargedNVRAM(ex.Presto, cpu, costs.DriverTrip,
			costs.NVRAMCopyPer8K, hw.Prestoserve().MaxIO)
	}
	return dev
}

// newServer builds one server instance over fs — a node's boot or an
// adopted export's takeover instance, with its home's daemon count and
// board setting. It is the single source of the gather policy, the
// boot-verifier formula (the home's index and boot count identify the
// export's instance; clients detect the change and know the dup cache
// died; the paper boot sends none) and the metadata charge hook.
func (c *Cluster) newServer(net *netsim.Network, name string, fs *ufs.FS, cpu *sim.Resource, home *Node) *server.Server {
	cfg := c.cfg
	costs := c.costs
	scfg := server.Config{
		Name:        name,
		NumNfsds:    home.Shard.Nfsds,
		Gathering:   cfg.Gathering,
		Costs:       costs,
		Accelerated: home.Shard.Presto,
		CPU:         cpu,
	}
	if !cfg.PaperBoot {
		scfg.BootVerifier = uint64(home.Index+1)<<32 | uint64(home.Boots+1)
	}
	if cfg.Gathering {
		if cfg.GatherOverride != nil {
			scfg.Gather = *cfg.GatherOverride
		} else {
			scfg.Gather = core.DefaultConfig(home.Shard.Presto, net.Params().Procrastinate)
		}
	}
	srv := server.New(c.Sim, net, fs, scfg)
	fs.ChargeMeta = func(p *sim.Proc) { srv.CPU().Use(p, costs.MetaUpdate) }
	return srv
}

// boot is an export's one boot path, shared by Reboot and Adopt, which
// differ only in the CPU the stack charges and the endpoint name: the
// home's NVRAM tray replays onto its platters, a fresh device stack goes
// up over them, the filesystem remounts at device speed (the recovery
// time the experiments report), and serve starts a fresh server. p is the
// boot process.
func (n *Node) boot(p *sim.Proc, ex *Export, cpu *sim.Resource) error {
	ex.Home.replayTray()
	fs, err := mountRetry(n.c.Sim, p, ex.buildDeviceStack(cpu), n.c.cfg.Acct)
	if err != nil {
		return err
	}
	n.serve(ex, fs, cpu)
	return nil
}

// serve starts a fresh server instance for ex over fs on cpu and puts it
// on this node's NIC: the endpoint is placed on
// the node's segment, which repoints every other segment's route at it,
// and is born cut off if the NIC is severed. The owner map and the route
// table then name it for the export's FSID (a reboot rewrites its own
// entries with what they hold), and the observers hear of it last.
func (n *Node) serve(ex *Export, fs *ufs.FS, cpu *sim.Resource) {
	c, home := n.c, ex.Home
	ex.FS = fs
	ex.Server = c.newServer(n.net, ex.Name, fs, cpu, home)
	c.Fabric.Place(ex.Name, n.Shard.Segment)
	if n.Server.Endpoint().LinkDown() {
		n.net.SetLinkDown(ex.Name, true)
	}
	c.owner[ex.FSID] = ex
	c.routes[ex.FSID] = ex.Name
	if c.cfg.OnServerUp != nil {
		c.cfg.OnServerUp(ex.Server, ex.Presto)
	}
}

// Crash kills the node instantaneously: nfsd state, socket buffers, the
// buffer cache and the dup cache are lost; the platters and the NVRAM
// dirty map survive. In-flight disk transfers die mid-air (their bytes
// never land) exactly as a power failure would lose them. Every export
// the node serves goes down alike, its own first: adopted exports die
// with the host, and nothing brings them back — a rebooted adopter does
// not re-adopt.
func (n *Node) Crash() {
	if n.Down {
		return
	}
	s := n.c.Sim
	for _, ex := range n.Exports {
		for _, pr := range ex.Server.Procs() {
			s.Kill(pr)
		}
		if ex.Presto != nil {
			for _, pr := range ex.Presto.Procs() {
				s.Kill(pr)
			}
		}
		s.Kill(ex.mkfs)
		n.net.Detach(ex.Name)
		// The in-core filesystem dies with the host; a boot remounts from
		// the platters. DropCaches releases the buffer cache's block
		// references (host memory is gone; contents shared with the
		// platter store and the battery-backed NVRAM dirty map live on
		// there), and so are the READ reply blocks the duplicate cache
		// kept.
		ex.Server.DropDupCache()
		ex.FS.DropCaches()
		// The board sits on the home's tray: its dirty map survives this
		// host, carried by the home (for the node's own export, that is
		// itself) and replayed at the platters' next boot.
		board := ex.Presto
		ex.FS, ex.Server, ex.Presto = nil, nil, nil
		ex.Home.Presto = board
	}
	n.Exports = n.Exports[:1]
	n.Down = true
}

// Reboot brings the node back through the boot path on a fresh CPU, with
// a new boot verifier. The caller provides the boot process.
func (n *Node) Reboot(p *sim.Proc) error {
	if !n.Down {
		return fmt.Errorf("cluster: reboot of running node %s", n.Name)
	}
	n.Rebooting = true
	defer func() { n.Rebooting = false }()
	if err := n.boot(p, &n.Export, sim.NewResource(n.c.Sim, 1)); err != nil {
		return fmt.Errorf("cluster: remount %s: %w", n.Name, err)
	}
	n.Boots++
	n.Down = false
	return nil
}

// Adopt mounts a dead peer's disks under this node — the shard-failover
// recovery step. The export goes through the boot path on this node's
// CPU, with a server instance of its own on the endpoint adopter+dead:
// the peer's tray replays (the board travels with the disk tray), and
// the takeover is free in hardware but every adopted RPC now contends
// with the adopter's own load. The export keeps the dead shard's FSID and
// the next boot verifier of its platters, so existing file handles stay
// valid and clients see the dup cache is gone; the route table sends
// every client to the adopter. The caller provides the takeover process
// (its elapsed time is the remount, as for Reboot).
func (n *Node) Adopt(p *sim.Proc, dead *Node) error {
	if n.Down {
		return fmt.Errorf("cluster: %s cannot adopt while down", n.Name)
	}
	if !dead.Down {
		return fmt.Errorf("cluster: adopting running node %s", dead.Name)
	}
	ex := &Export{FSID: dead.FSID, Name: n.Name + "+" + dead.Name, Home: dead}
	if err := n.boot(p, ex, n.Server.CPU()); err != nil {
		return fmt.Errorf("cluster: adopt %s on %s: %w", dead.Name, n.Name, err)
	}
	n.Exports = append(n.Exports, ex)
	return nil
}

// FSByFSID resolves the mounted filesystem currently serving an export:
// the home node's own, or the adopter's mounted copy after a failover.
// Nil when nobody serves it (the home is down with no adopter, or the
// adopter crashed).
func (c *Cluster) FSByFSID(fsid uint32) *ufs.FS {
	if ex := c.owner[fsid]; ex != nil {
		return ex.FS
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
// adopted, plus the reply body each client holds as its READ scratch, the
// pattern table's own reference to each page it built, and the wire heads
// held at quiesce (HeldHeads).
// After a full quiesce, the process block-reference total minus the
// pre-build baseline must equal exactly this sum: any surplus is a
// reference leaked through an unwind path, any deficit a double release.
// The scenario runner audits it per cell.
func (c *Cluster) AccountedRefs() int64 {
	var n int64
	for _, node := range c.Nodes {
		for _, d := range node.Disks {
			n += int64(d.StoredBufs())
		}
		for _, ex := range node.Exports {
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
	return n + int64(c.Pages.Refs()) + c.HeldHeads()
}

// HeldHeads sums the wire-head references the cluster's long-lived
// structures retain at quiesce: each duplicate cache's reply heads, own
// and adopted, and the last reply head each client keeps as its result
// scratch.
func (c *Cluster) HeldHeads() int64 {
	var n int64
	for _, node := range c.Nodes {
		for _, ex := range node.Exports {
			if ex.Server != nil {
				n += int64(ex.Server.DupHeads())
			}
		}
	}
	for _, cli := range c.Clients {
		n += int64(cli.HeldHeads())
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
	// shards; skew between them exposes an unbalanced placement. On one
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
