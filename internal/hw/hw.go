// Package hw collects the hardware parameter sets the experiments are
// calibrated against: the RZ26 SCSI disk, Ethernet and FDDI links, the
// DEC-3x00-class server CPU cost table, and the Prestoserve NVRAM board.
// Values are derived from the paper's published configurations and the
// devices' data sheets; they are inputs to the simulation, not measurements.
package hw

import "repro/internal/sim"

// DiskParams describes a moving-head disk.
type DiskParams struct {
	Name string
	// BlockSize is the filesystem block size served, in bytes. The data
	// path's refcounted buffers (internal/block) are fixed at 8192, which
	// is therefore the only value disk.New accepts.
	BlockSize     int
	NumBlocks     int64        // capacity in blocks
	TrackSeek     sim.Duration // track-to-track seek
	AvgSeek       sim.Duration // average random seek
	RotationTime  sim.Duration // full revolution
	MediaRateKBps int          // sustained media transfer rate, KB/s
	CtlOverhead   sim.Duration // controller/command overhead per op
}

// RZ26 approximates the DEC RZ26: 1.05 GB, 5400 RPM, ~9.5 ms average seek,
// ~2.6 MB/s sustained media rate. The paper's servers used one RZ26 or a
// three-way stripe set of them.
func RZ26() DiskParams {
	return DiskParams{
		Name:          "RZ26",
		BlockSize:     8192,
		NumBlocks:     128 * 1024, // 1 GB of 8K blocks
		TrackSeek:     1500 * sim.Microsecond,
		AvgSeek:       9500 * sim.Microsecond,
		RotationTime:  11111 * sim.Microsecond, // 5400 RPM
		MediaRateKBps: 2600,
		CtlOverhead:   500 * sim.Microsecond,
	}
}

// NetParams describes a shared-medium LAN.
type NetParams struct {
	Name string
	// BandwidthKBps is the usable link rate in KB/s.
	BandwidthKBps int
	// MTU is the maximum transmission unit; an 8K NFS datagram is
	// fragmented into ceil(size/MTU) fragments.
	MTU int
	// FragOverhead is the per-fragment framing/interframe cost on the wire.
	FragOverhead sim.Duration
	// Latency is the one-way propagation plus fixed adapter latency.
	Latency sim.Duration
	// Procrastinate is the paper's empirically derived gather wait for this
	// medium (§6.6): ~8 ms for Ethernet, ~5 ms for FDDI.
	Procrastinate sim.Duration
}

// Ethernet is 10 Mb/s shared Ethernet.
func Ethernet() NetParams {
	return NetParams{
		Name:          "Ethernet",
		BandwidthKBps: 1180, // ~9.7 Mb/s effective
		MTU:           1500,
		FragOverhead:  120 * sim.Microsecond,
		Latency:       150 * sim.Microsecond,
		Procrastinate: 8 * sim.Millisecond,
	}
}

// FDDI is 100 Mb/s FDDI.
func FDDI() NetParams {
	return NetParams{
		Name:          "FDDI",
		BandwidthKBps: 11600, // ~95 Mb/s effective
		MTU:           4352,
		FragOverhead:  25 * sim.Microsecond,
		Latency:       80 * sim.Microsecond,
		Procrastinate: 5 * sim.Millisecond,
	}
}

// CPUParams is the server CPU cost table: how long each software action
// holds the (single) server CPU. These are the costs write gathering
// conserves — UFS trips, driver trips, interrupt fielding, NVRAM copies.
type CPUParams struct {
	Name string
	// PerFragment is packet input processing (device interrupt, IP
	// reassembly contribution) per network fragment.
	PerFragment sim.Duration
	// RPCDispatch is socket dequeue + RPC/XDR decode + NFS dispatch.
	RPCDispatch sim.Duration
	// VopWriteData is the UFS data-path trip for one 8K write (copyin,
	// buffer handling).
	VopWriteData sim.Duration
	// MetaUpdate is one metadata update trip through UFS (inode or
	// indirect block preparation).
	MetaUpdate sim.Duration
	// DriverTrip is the cost of issuing one disk command and fielding its
	// completion interrupt.
	DriverTrip sim.Duration
	// NVRAMCopyPer8K is the CPU cost of copying 8K into Prestoserve.
	NVRAMCopyPer8K sim.Duration
	// ReplySend is RPC encode + socket output.
	ReplySend sim.Duration
	// GatherCheck is the bookkeeping cost of one pass over the nfsd state
	// table / socket buffer scan ("being clever", §9).
	GatherCheck sim.Duration
	// ReadPath is the UFS read trip for one 8K read hit.
	ReadPath sim.Duration
	// LookupPath is the name lookup cost (lightweight op).
	LookupPath sim.Duration
}

// DEC3000CPU approximates the DEC 3400/3500/3800-class server CPUs of the
// paper. A single cost table is used; the 3800 is modelled as ~1.6x faster
// via Scale.
func DEC3000CPU() CPUParams {
	return CPUParams{
		Name:           "DEC3x00",
		PerFragment:    100 * sim.Microsecond,
		RPCDispatch:    200 * sim.Microsecond,
		VopWriteData:   450 * sim.Microsecond,
		MetaUpdate:     300 * sim.Microsecond,
		DriverTrip:     250 * sim.Microsecond,
		NVRAMCopyPer8K: 350 * sim.Microsecond,
		ReplySend:      200 * sim.Microsecond,
		GatherCheck:    60 * sim.Microsecond,
		ReadPath:       400 * sim.Microsecond,
		LookupPath:     180 * sim.Microsecond,
	}
}

// Scale returns a copy of the cost table with every cost divided by f
// (f > 1 means a faster CPU). The paper's FDDI and LADDIS server, a DEC
// 3800 ("for no better reason than that is the way my lab is set up"),
// is DEC3000CPU().Scale(1.8).
func (c CPUParams) Scale(f float64) CPUParams {
	s := c
	div := func(d sim.Duration) sim.Duration { return sim.Duration(float64(d) / f) }
	s.PerFragment = div(c.PerFragment)
	s.RPCDispatch = div(c.RPCDispatch)
	s.VopWriteData = div(c.VopWriteData)
	s.MetaUpdate = div(c.MetaUpdate)
	s.DriverTrip = div(c.DriverTrip)
	s.NVRAMCopyPer8K = div(c.NVRAMCopyPer8K)
	s.ReplySend = div(c.ReplySend)
	s.GatherCheck = div(c.GatherCheck)
	s.ReadPath = div(c.ReadPath)
	s.LookupPath = div(c.LookupPath)
	return s
}

// PrestoParams describes a Prestoserve-style NVRAM accelerator.
type PrestoParams struct {
	Name string
	// CacheBytes is the NVRAM capacity (typically 1 MB).
	CacheBytes int
	// MaxIO is the largest single write Presto will accept (typically 8K);
	// larger requests are declined and go to the raw disk.
	MaxIO int
	// AcceptLatency is the board latency for an accepted write beyond the
	// CPU copy cost.
	AcceptLatency sim.Duration
	// DrainCluster is the maximum contiguous run Presto writes to disk in
	// one transaction when draining.
	DrainCluster int
	// HiWater is the fill level (bytes) at which the drainer goes to work
	// immediately; below it the drainer lingers, letting contiguous runs
	// accumulate.
	HiWater int
	// IdleFlush is how long the drainer waits for more writes before
	// flushing a below-HiWater cache.
	IdleFlush sim.Duration
	// DrainWorkers is how many drain I/Os the board keeps in flight;
	// Presto "can drive disks asynchronously and in parallel" (§6.3).
	DrainWorkers int
}

// Prestoserve returns the 1 MB board modelled in the paper's Presto rows.
func Prestoserve() PrestoParams {
	return PrestoParams{
		Name:          "Prestoserve-1MB",
		CacheBytes:    1 << 20,
		MaxIO:         8192,
		AcceptLatency: 150 * sim.Microsecond,
		DrainCluster:  128 * 1024,
		HiWater:       1 << 19, // drain eagerly above 50% full
		IdleFlush:     25 * sim.Millisecond,
		DrainWorkers:  4,
	}
}

// ClientParams describes the client host behaviour.
type ClientParams struct {
	Name string
	// WriteGenerate is the client-side cost to produce one 8K write
	// request (application write + kernel handoff).
	WriteGenerate sim.Duration
	// RetransTimeout is the initial retransmission interval (typically
	// 1.1s) and doubles on each timeout up to RetransMax.
	RetransTimeout sim.Duration
	RetransMax     sim.Duration
}

// DEC3000Client approximates the DS/DEC-3x00 class client: fast enough to
// generate 8K writes much quicker than a server can commit them.
func DEC3000Client() ClientParams {
	return ClientParams{
		Name:           "DEC3x00-client",
		WriteGenerate:  600 * sim.Microsecond,
		RetransTimeout: 1100 * sim.Millisecond,
		RetransMax:     30 * sim.Second,
	}
}
