// Package client models a typical workstation NFS client (§4.1): a pool
// of biod daemons performing write-behind, the hand-off-or-do-it-yourself
// flow control that blocks the application when every biod is busy, UDP
// retransmission with exponential backoff starting at 1.1 s, and
// sync-on-close semantics.
package client

import (
	"errors"
	"fmt"

	"repro/internal/block"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xdr"
)

// Errors returned by the RPC layer.
var (
	ErrTimeout = errors.New("client: rpc timed out")
	ErrDenied  = errors.New("client: rpc denied")
)

// Client is one NFS client host.
type Client struct {
	sim    *sim.Sim
	net    *netsim.Network
	ep     *netsim.Endpoint
	name   string
	server string
	params hw.ClientParams

	// routes maps an export's FSID to the server endpoint serving it; with
	// sharded multi-server clusters every call is routed by its file
	// handle. Handles with no route go to the default server.
	routes map[uint32]string

	xidSeq  uint32
	pending map[uint32]*pendingCall
	freePC  []*pendingCall // pendingCall pool
	credRaw []byte         // AUTH_UNIX credential, constant per client
	// pool backs write payload staging: WriteFile and the LADDIS burst
	// workers stage each 8K request in a refcounted buffer that then rides
	// the wire by reference (every in-flight datagram holds its own ref),
	// so the staging buffer is reusable the moment the RPC completes even
	// though retransmitted copies may still be queued somewhere.
	pool *block.Pool
	// bootIDs remembers the last boot-instance verifier seen per server;
	// a change means the server rebooted and its dup cache is gone.
	bootIDs map[string]uint64

	jobs      *sim.Queue[*writeJob]
	idleBiods int
	numBiods  int

	outstanding int
	closeCond   *sim.Cond

	// Volatile host state the fault layer manipulates: the biod
	// processes a crash kills, the application processes registered via
	// AdoptApp that die with the host, and the per-biod in-flight job
	// table KillBiods uses to settle flow-control accounting for daemons
	// killed mid-RPC. (The reply demultiplexer is a callback on the
	// endpoint, and dies with it.)
	daemons    []*sim.Proc
	apps       []*sim.Proc
	activeJobs map[*sim.Proc]*writeJob
	appsKilled int

	// Per-client result decode scratch (see the discipline note at call).
	scratchAttrStat   nfsproto.AttrStat
	scratchDirOpRes   nfsproto.DirOpRes
	scratchReadRes    nfsproto.ReadRes
	scratchStatusRes  nfsproto.StatusRes
	scratchReaddirRes nfsproto.ReaddirRes
	scratchStatfsRes  nfsproto.StatfsRes
	// replyBody is the data block of the most recently completed call's
	// reply when it arrived split (a READ answered by reference), one
	// reference of the client's own; Read's result aliases it. It is the
	// READ half of the result scratch and lives as long: until the next
	// call completes (the caller has consumed its result by then) or the
	// host crashes.
	replyBody    *block.Buf
	replyBodyLen int
	// enc is reset onto each call's wire buffer (encoding never yields, so
	// one serves every process of the host).
	enc xdr.Encoder

	// Counters.
	Retransmissions uint64
	Calls           uint64
	// Timeouts counts calls that exhausted every retransmission attempt
	// and returned ErrTimeout — the storm signature of sustained overload.
	Timeouts uint64
	// Replied counts calls that returned with a reply, Abandoned those
	// whose caller a kill unwound first (a host crash, a lost biod); at
	// quiesce Calls = Replied + Timeouts + Abandoned.
	Replied      uint64
	Abandoned    uint64
	WriteCounter stats.Counter
	WriteLatency stats.Latency
	// RebootsSeen counts server boot-verifier changes observed in replies.
	RebootsSeen uint64
	// Down is true between Crash and Reboot; Boots counts completed boot
	// cycles (1 after New). BiodsLost counts daemons KillBiods removed.
	Down      bool
	Boots     int
	BiodsLost int
	// MaxRTO caps backoff growth.
	MaxRTO sim.Duration
	// MaxRetries bounds send attempts per call (default 8). Crash tests
	// raise it so clients ride out a server outage and reconnect.
	MaxRetries int
	// OnWriteEvent, when non-nil, observes write request lifecycles for
	// tracing: event is "send" or "reply".
	OnWriteEvent func(event string, off uint32, n int)
	// OnWriteAcked, when non-nil, observes every successfully acked WRITE;
	// the crash-durability journal records these.
	OnWriteAcked func(fh nfsproto.FH, off uint32, n int)
	// OnWriteBuffered, when non-nil, observes every write accepted into
	// write-behind: the application's write() returned before any server
	// ack existed, so a client crash may legitimately lose it. The
	// durability journal uses this to separate real loss (acked bytes
	// gone) from permitted loss (buffered bytes never acked).
	OnWriteBuffered func(fh nfsproto.FH, off uint32, n int)
	// OnRPC, when non-nil, observes every completed RPC: the issue time,
	// how many transmissions it took (attempts > 1 means retransmitted),
	// and whether a reply arrived. The observability plane turns these
	// into client-side lifecycle spans. Calls unwound by a host crash are
	// never reported — a dead workstation writes no trace.
	OnRPC func(proc nfsproto.Proc, xid uint32, issued sim.Time, attempts int, ok bool)
}

// pendingCall is one RPC from start to settle, pooled per client: the
// call's state for the retransmission loop (start, aim, settle), the reply
// decode target, so the steady-state path allocates no ReplyMsg, and Go's
// continuations, bound once when the record is made.
type pendingCall struct {
	c        *Client
	cond     sim.Cond
	reply    *oncrpc.ReplyMsg // nil until a reply arrives; points at replyBuf
	replyBuf oncrpc.ReplyMsg
	// body is the reply datagram's body reference, taken over by
	// receive; endCall passes it on to the client's replyBody.
	body    *block.Buf
	bodyLen int

	// The call, as start made it: raw is its encoded head, never mutated
	// (queued and retransmitted datagrams alias it), out its split WRITE
	// payload, which every transmission references. With routed set each
	// attempt re-resolves its destination from fh's route (static routes
	// make this a no-op; a mid-call failover redirects the next retry);
	// otherwise to is used verbatim.
	proc    nfsproto.Proc
	xid     uint32
	fh      nfsproto.FH
	routed  bool
	to      string
	raw     []byte
	out     *block.Buf
	outLen  int
	issued  sim.Time
	rto     sim.Duration
	attempt int // transmissions so far, once settled the call's attempt count
	tries   int

	// Go's request and its caller's continuation.
	req    Req
	done   func(nfsproto.Status, error)
	sentFn func()
	waitFn func()
}

// getPC takes a pending-call record from the pool.
func (c *Client) getPC() *pendingCall {
	if n := len(c.freePC); n > 0 {
		pc := c.freePC[n-1]
		c.freePC = c.freePC[:n-1]
		pc.reply = nil
		pc.cond.Init(c.sim)
		return pc
	}
	pc := &pendingCall{c: c}
	pc.cond.Init(c.sim)
	pc.sentFn, pc.waitFn = pc.sent, pc.wait
	return pc
}

// GetWriteBuf takes a staging buffer from the client's pool; the caller
// fills it and hands it to WriteSyncBufRelease or writeBehindBuf, which
// release it when the write has completed.
func (c *Client) GetWriteBuf() *block.Buf { return c.pool.Get() }

type writeJob struct {
	fh  nfsproto.FH
	off uint32
	// Exactly one of data (copying path) and buf (refcounted zero-copy
	// path, n bytes) is set.
	data []byte
	buf  *block.Buf
	n    int
	c    *Client
}

// New attaches a client named name to the network, pointed at server, with
// the given number of biods (0 = fully synchronous writes). acct is the
// buffer ledger the write-staging pool charges (nil = the process-global
// one).
func New(s *sim.Sim, n *netsim.Network, name, server string, params hw.ClientParams, numBiods int, acct *block.Accounting) *Client {
	c := &Client{
		sim:        s,
		net:        n,
		ep:         n.Attach(name, 0, 0),
		name:       name,
		server:     server,
		params:     params,
		pending:    make(map[uint32]*pendingCall),
		jobs:       sim.NewQueue[*writeJob](s, 0),
		numBiods:   numBiods,
		closeCond:  sim.NewCond(s),
		MaxRTO:     params.RetransMax,
		MaxRetries: 8,
		credRaw:    (&oncrpc.UnixCred{MachineName: name, UID: 0, GID: 0}).Encode(),
		pool:       block.Or(acct).NewPool(),
	}
	c.startDaemons()
	return c
}

// startDaemons starts one boot's volatile machinery: the reply
// demultiplexer on the boot's endpoint and the biod pool. New and Reboot
// both go through here.
func (c *Client) startDaemons() {
	c.ep.Serve(c.receive)
	c.daemons = c.daemons[:0]
	for i := 0; i < c.numBiods; i++ {
		c.daemons = append(c.daemons, c.sim.Spawn(fmt.Sprintf("%s-biod%d", c.name, i), c.biod))
	}
	c.Boots++
	c.Down = false
}

// Name returns the client's endpoint name.
func (c *Client) Name() string { return c.name }

// Sim returns the owning simulator.
func (c *Client) Sim() *sim.Sim { return c.sim }

// AddRoute directs calls on file handles with the given FSID to the named
// server endpoint. Cluster rigs install one route per export shard.
func (c *Client) AddRoute(fsid uint32, server string) {
	if c.routes == nil {
		c.routes = make(map[uint32]string)
	}
	c.routes[fsid] = server
}

// dest resolves the server endpoint for a file handle.
func (c *Client) dest(fh nfsproto.FH) string {
	if c.routes != nil {
		if s, ok := c.routes[fh.FSID()]; ok {
			return s
		}
	}
	return c.server
}

// receive demultiplexes one reply to its waiting caller by XID. It never
// blocks, so it runs as the endpoint's callback (Endpoint.Serve), not as a
// process. Replies are decoded into the pending call's embedded record —
// the steady-state path allocates nothing — and late duplicates are
// dropped without a decode.
func (c *Client) receive(dg *netsim.Datagram) {
	xid, ok := oncrpc.PeekXID(dg.Payload)
	if !ok {
		dg.Release()
		return
	}
	pc, active := c.pending[xid]
	if !active || pc.reply != nil {
		dg.Release() // late duplicate reply; drop
		return
	}
	if err := oncrpc.DecodeReplyInto(dg.Payload, &pc.replyBuf); err != nil {
		dg.Release()
		return
	}
	// A changed boot-instance verifier is the client's only evidence that
	// the server restarted (and lost its duplicate cache).
	if id, has := oncrpc.BootVerf(pc.replyBuf.Verf); has {
		if last, seen := c.bootIDs[dg.From]; seen && last != id {
			c.RebootsSeen++
		}
		if c.bootIDs == nil {
			c.bootIDs = make(map[string]uint64)
		}
		c.bootIDs[dg.From] = id
	}
	// A split reply's data block stays with the call instead of dying with
	// the datagram.
	pc.body, pc.bodyLen = dg.TakeBody()
	dg.Release()
	pc.reply = &pc.replyBuf
	pc.cond.Signal()
}

// Req names one procedure and its arguments, for Go and for the blocking
// procedures, which share its encode half.
type Req struct {
	Proc nfsproto.Proc
	// FH is the file the call is about, or the directory Name is looked
	// up, made or removed in. Every call but STATFS routes by it.
	FH   nfsproto.FH
	Name string // LOOKUP, CREATE, MKDIR, REMOVE
	// Off is a READ's or WRITE's byte offset, a READDIR's cookie.
	Off uint32
	// Count is a READ's or READDIR's byte count, a WRITE's length; Go
	// writes one MaxData block of the audit pattern (WritePattern).
	Count uint32
	Mode  uint32         // CREATE, MKDIR
	Attr  nfsproto.SAttr // SETATTR
}

// callEncoder starts one call: it takes the next XID and returns the
// client's one encoder, reset onto a fresh wire head of exactly the call's
// size, carved by the network (Network.WireBuf), that already holds the
// RPC header. The caller appends argsSize bytes of arguments and starts
// the call before anything yields.
func (c *Client) callEncoder(proc nfsproto.Proc, argsSize int) *xdr.Encoder {
	cred := oncrpc.OpaqueAuth{Flavor: oncrpc.AuthUnix, Body: c.credRaw}
	verf := oncrpc.NullAuth()
	c.xidSeq++
	c.enc.Reset(c.net.WireBuf(oncrpc.CallHeaderSize(cred, verf) + argsSize))
	oncrpc.AppendCallHeader(&c.enc, c.xidSeq, nfsproto.Program, nfsproto.Version, uint32(proc), cred, verf)
	return &c.enc
}

// encode is every procedure's encode half: callEncoder plus r's
// arguments. Each case builds its argument record on the caller's stack
// and encodes it at once, so the record costs no heap object.
func (c *Client) encode(r *Req) *xdr.Encoder {
	var e *xdr.Encoder
	switch r.Proc {
	case nfsproto.ProcLookup, nfsproto.ProcRemove:
		args := nfsproto.DirOpArgs{Dir: r.FH, Name: r.Name}
		e = c.callEncoder(r.Proc, args.EncodedSize())
		args.EncodeTo(e)
	case nfsproto.ProcCreate, nfsproto.ProcMkdir:
		args := nfsproto.CreateArgs{
			Where: nfsproto.DirOpArgs{Dir: r.FH, Name: r.Name},
			Attr:  nfsproto.DefaultSAttr(r.Mode),
		}
		e = c.callEncoder(r.Proc, args.EncodedSize())
		args.EncodeTo(e)
	case nfsproto.ProcGetattr, nfsproto.ProcStatfs:
		args := nfsproto.FHArgs{File: r.FH}
		e = c.callEncoder(r.Proc, args.EncodedSize())
		args.EncodeTo(e)
	case nfsproto.ProcSetattr:
		args := nfsproto.SetattrArgs{File: r.FH, Attr: r.Attr}
		e = c.callEncoder(r.Proc, args.EncodedSize())
		args.EncodeTo(e)
	case nfsproto.ProcRead:
		args := nfsproto.ReadArgs{File: r.FH, Offset: r.Off, Count: r.Count}
		e = c.callEncoder(r.Proc, args.EncodedSize())
		args.EncodeTo(e)
	case nfsproto.ProcReaddir:
		args := nfsproto.ReaddirArgs{Dir: r.FH, Cookie: r.Off, Count: r.Count}
		e = c.callEncoder(r.Proc, args.EncodedSize())
		args.EncodeTo(e)
	case nfsproto.ProcWrite:
		// The head only: the data rides as the datagram body.
		e = c.callEncoder(r.Proc, nfsproto.WriteArgsHeadSize)
		nfsproto.AppendWriteArgsHead(e, r.FH, r.Off, int(r.Count))
	default:
		panic(fmt.Sprintf("client: no encode half for procedure %d", r.Proc))
	}
	return e
}

// start registers the call callEncoder began (its XID is still xidSeq:
// nothing has yielded since) and readies its first attempt. STATFS asks
// the default server, as the recorded runs always have; every other
// procedure routes by its handle.
func (c *Client) start(proc nfsproto.Proc, fh nfsproto.FH, raw []byte, out *block.Buf, outLen int) *pendingCall {
	if proc == nfsproto.ProcStatfs {
		return c.startTo(proc, false, c.server, fh, raw, out, outLen)
	}
	return c.startTo(proc, true, "", fh, raw, out, outLen)
}

func (c *Client) startTo(proc nfsproto.Proc, routed bool, to string, fh nfsproto.FH, raw []byte, out *block.Buf, outLen int) *pendingCall {
	pc := c.getPC()
	pc.proc, pc.xid, pc.fh, pc.routed, pc.to = proc, c.xidSeq, fh, routed, to
	pc.raw, pc.out, pc.outLen = raw, out, outLen
	pc.issued, pc.rto, pc.attempt = c.sim.Now(), c.params.RetransTimeout, 0
	pc.tries = c.MaxRetries
	if pc.tries <= 0 {
		pc.tries = 8
	}
	c.pending[pc.xid] = pc
	c.Calls++
	return pc
}

// aim begins one attempt of the retransmission loop: it counts a
// retransmission and resolves where the attempt goes.
func (pc *pendingCall) aim() string {
	c := pc.c
	if pc.attempt > 0 {
		c.Retransmissions++
	}
	if pc.routed {
		pc.to = c.dest(pc.fh)
	}
	return pc.to
}

// settle ends one attempt: replied says its wait ended with a reply. It
// reports whether the call is over — replied, or out of tries — and backs
// the timer off when it is not.
func (pc *pendingCall) settle(replied bool) bool {
	c := pc.c
	pc.attempt++
	if replied {
		c.Replied++
		if c.OnRPC != nil {
			c.OnRPC(pc.proc, pc.xid, pc.issued, pc.attempt, pc.reply.Stat == oncrpc.MsgAccepted && pc.reply.AccStat == oncrpc.Success)
		}
		return true
	}
	pc.rto *= 2
	if pc.rto > c.MaxRTO {
		pc.rto = c.MaxRTO
	}
	if pc.attempt < pc.tries {
		return false
	}
	c.Timeouts++
	if c.OnRPC != nil {
		c.OnRPC(pc.proc, pc.xid, pc.issued, pc.attempt, false)
	}
	return true
}

// outcome is a settled call's reply and RPC-level error.
func (pc *pendingCall) outcome() (*oncrpc.ReplyMsg, error) {
	reply := pc.reply
	switch {
	case reply == nil:
		return nil, ErrTimeout
	case reply.Stat != oncrpc.MsgAccepted:
		return reply, ErrDenied
	case reply.AccStat != oncrpc.Success:
		return reply, fmt.Errorf("client: rpc accept status %d", reply.AccStat)
	}
	return reply, nil
}

// endCall retires a settled (or abandoned) call. The reply's body, if it
// had one, becomes the client's; the one held for the previous call is
// dead by the scratch discipline. The returned reply stays readable until
// the record is next taken from the pool.
func (c *Client) endCall(pc *pendingCall) {
	delete(c.pending, pc.xid)
	c.dropReplyBody()
	c.replyBody, c.replyBodyLen = pc.body, pc.bodyLen
	pc.body, pc.bodyLen = nil, 0
	pc.raw, pc.out, pc.req, pc.done = nil, nil, Req{}, nil
	c.freePC = append(c.freePC, pc)
}

// do performs the RPC r names from the parked process p, the blocking
// driver of the retransmission loop, and decodes its reply. It returns the
// call's attempt count and the procedure's error.
//
// Scratch discipline: results decode into per-client scratch structs
// (decode), which stay valid only until the calling process next yields
// (sleeps, sends, or performs another RPC): callers must consume a result
// before their next blocking call, exactly like the server's result
// scratch in dispatch.go. A Go continuation's result is valid until it
// returns.
func (c *Client) do(p *sim.Proc, r *Req) (int, error) {
	e := c.encode(r)
	reply, attempts, err := c.finish(p, c.start(r.Proc, r.FH, e.Bytes(), nil, 0))
	_, err = c.decode(r.Proc, reply, err)
	return attempts, err
}

// Call performs one RPC to the default server with pre-encoded args and
// with retransmission and backoff. It blocks p until a reply arrives or
// retransmission gives up (MaxRetries attempts).
func (c *Client) Call(p *sim.Proc, proc nfsproto.Proc, args []byte) (*oncrpc.ReplyMsg, error) {
	return c.CallTo(p, c.server, proc, args)
}

// CallTo is Call aimed at an explicit server endpoint. The returned
// ReplyMsg points into the pooled pending-call record: result scratch.
func (c *Client) CallTo(p *sim.Proc, to string, proc nfsproto.Proc, args []byte) (*oncrpc.ReplyMsg, error) {
	c.xidSeq++
	call := &oncrpc.CallMsg{
		XID:  c.xidSeq,
		Prog: nfsproto.Program,
		Vers: nfsproto.Version,
		Proc: uint32(proc),
		Cred: oncrpc.OpaqueAuth{Flavor: oncrpc.AuthUnix, Body: c.credRaw},
		Verf: oncrpc.NullAuth(),
		Args: args,
	}
	reply, _, err := c.finish(p, c.startTo(proc, false, to, nfsproto.FH{}, call.Encode(), nil, 0))
	return reply, err
}

// finish runs the retransmission loop from the parked process p, which is
// pc's Cond waiter itself: a reply's Signal wakes it directly. It returns
// the reply, the attempt count and the RPC error. A caller a kill unwinds
// mid-call is counted Abandoned.
func (c *Client) finish(p *sim.Proc, pc *pendingCall) (*oncrpc.ReplyMsg, int, error) {
	settled := false
	defer func() {
		if !settled {
			c.Abandoned++ // the caller is being unwound by a kill
		}
		// An unwinding (killed) caller takes this path too, so a body that
		// arrived for it is never stranded in the pooled record.
		c.endCall(pc)
	}()
	for {
		to := pc.aim()
		if pc.out != nil {
			c.net.SendBuf(p, c.name, to, pc.raw, pc.out, pc.outLen)
		} else {
			c.net.Send(p, c.name, to, pc.raw)
		}
		if pc.settle(pc.cond.WaitTimeout(p, pc.rto) || pc.reply != nil) {
			break
		}
	}
	settled = true
	reply, err := pc.outcome()
	return reply, pc.attempt, err
}

// Go issues r as a call that is no process's: it sends, waits for the
// medium, arms its retransmission timer and takes its reply entirely as
// run-loop events, and then calls done with the procedure's status and
// error — what its blocking twin returns — where that twin's caller would
// have resumed. A WRITE writes one MaxData block of the audit pattern at
// r.Off from a pooled staging buffer (WritePattern's request); a CREATE
// whose retransmission finds the file made goes on to LOOKUP it, as
// Create does. The call's results are valid until done returns.
//
// Go and the blocking procedures run one retransmission loop (start, aim,
// settle): each of Go's steps schedules exactly the event the parked
// process's step does, in the same (time, seq) slot, so which driver a
// caller uses moves no recorded result. A callback call is nobody's stack,
// so a host crash does not unwind it: it stays pending, transmits nothing
// while the host is down, and settles as a reply or a timeout.
func (c *Client) Go(r Req, done func(nfsproto.Status, error)) {
	var out *block.Buf
	outLen := 0
	if r.Proc == nfsproto.ProcWrite {
		out, outLen = c.GetWriteBuf(), nfsproto.MaxData
		FillPattern(out.Data(), r.Off)
		r.Count = nfsproto.MaxData
		if c.OnWriteEvent != nil {
			c.OnWriteEvent("send", r.Off, nfsproto.MaxData)
		}
	}
	e := c.encode(&r)
	pc := c.start(r.Proc, r.FH, e.Bytes(), out, outLen)
	pc.req, pc.done = r, done
	pc.transmit()
}

// transmit is Go's attempt: a callback send, then sent.
func (pc *pendingCall) transmit() {
	c := pc.c
	to := pc.aim()
	if c.Down {
		pc.sent() // a crashed host sends nothing; the attempt times out
		return
	}
	c.net.SendNotify(c.name, to, pc.raw, pc.out, pc.outLen, pc.sentFn)
}

// sent arms the attempt's wait: a reply's Signal or the timer calls wait.
func (pc *pendingCall) sent() { pc.cond.NotifyTimeout(pc.rto, pc.waitFn) }

// wait ends Go's attempt: the next one, or the decode half and done. Only
// receive signals the call's Cond, once its reply is in, so a reply is
// what tells a Signal from the timer — and a reply that came in while
// the attempt was still being sent counts at the timer, as in the
// blocking driver.
func (pc *pendingCall) wait() {
	if !pc.settle(pc.reply != nil) {
		pc.transmit()
		return
	}
	c := pc.c
	reply, err := pc.outcome()
	r, done, out, issued, attempts := pc.req, pc.done, pc.out, pc.issued, pc.attempt
	c.endCall(pc)
	st := nfsproto.OK
	if out != nil {
		err = c.writeDone(r.FH, r.Off, nfsproto.MaxData, issued, reply, err)
		out.Release()
	} else {
		st, err = c.decode(r.Proc, reply, err)
	}
	if r.Proc == nfsproto.ProcCreate && err == nil && st == nfsproto.ErrExist && attempts > 1 {
		// Create's recovery of a retried CREATE (see Create).
		c.Go(Req{Proc: nfsproto.ProcLookup, FH: r.FH, Name: r.Name}, done)
		return
	}
	done(st, err)
}

// decode is every procedure's decode half, given its call's reply and
// RPC error: it decodes the results into the procedure's per-client
// scratch and reports the status they carry and the error the blocking
// procedure returns. The pooled reply record is cleared once decoded, so
// records waiting in the pool do not pin the wire payloads they aliased.
func (c *Client) decode(proc nfsproto.Proc, reply *oncrpc.ReplyMsg, err error) (nfsproto.Status, error) {
	if err != nil {
		return nfsproto.ErrIO, err
	}
	var st nfsproto.Status
	switch b := reply.Results; proc {
	case nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcMkdir:
		err, st = nfsproto.DecodeDirOpResInto(b, &c.scratchDirOpRes), c.scratchDirOpRes.Status
	case nfsproto.ProcGetattr, nfsproto.ProcSetattr, nfsproto.ProcWrite:
		err, st = nfsproto.DecodeAttrStatInto(b, &c.scratchAttrStat), c.scratchAttrStat.Status
	case nfsproto.ProcRead:
		if c.replyBody != nil {
			// Answered by reference: the data is the server's cache block,
			// readable (never writable) while the client holds replyBody.
			err = nfsproto.DecodeReadResSplitInto(b, c.replyBody.Data()[:c.replyBodyLen], &c.scratchReadRes)
		} else {
			err = nfsproto.DecodeReadResInto(b, &c.scratchReadRes)
		}
		st = c.scratchReadRes.Status
	case nfsproto.ProcRemove:
		err, st = nfsproto.DecodeStatusResInto(b, &c.scratchStatusRes), c.scratchStatusRes.Status
	case nfsproto.ProcReaddir:
		err, st = nfsproto.DecodeReaddirResInto(b, &c.scratchReaddirRes), c.scratchReaddirRes.Status
	case nfsproto.ProcStatfs:
		err, st = nfsproto.DecodeStatfsResInto(b, &c.scratchStatfsRes), c.scratchStatfsRes.Status
	default:
		panic(fmt.Sprintf("client: no decode half for procedure %d", proc))
	}
	*reply = oncrpc.ReplyMsg{}
	if err != nil {
		return nfsproto.ErrIO, err
	}
	return st, nil
}

// dropReplyBody releases the reply body the client holds, if any.
func (c *Client) dropReplyBody() {
	if c.replyBody != nil {
		c.replyBody.Release()
		c.replyBody, c.replyBodyLen = nil, 0
	}
}

// HeldBodies reports how many reply-body references the client holds: the
// READ scratch, 0 or 1 (leak-check accounting).
func (c *Client) HeldBodies() int {
	if c.replyBody != nil {
		return 1
	}
	return 0
}

// PendingRPCs reports calls awaiting replies right now — the
// outstanding-RPC probe of the observability plane.
func (c *Client) PendingRPCs() int { return len(c.pending) }

// Lookup resolves name in dir.
func (c *Client) Lookup(p *sim.Proc, dir nfsproto.FH, name string) (*nfsproto.DirOpRes, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcLookup, FH: dir, Name: name}); err != nil {
		return nil, err
	}
	return &c.scratchDirOpRes, nil
}

// Create makes a file in dir.
func (c *Client) Create(p *sim.Proc, dir nfsproto.FH, name string, mode uint32) (*nfsproto.DirOpRes, error) {
	attempts, err := c.do(p, &Req{Proc: nfsproto.ProcCreate, FH: dir, Name: name, Mode: mode})
	if err != nil {
		return nil, err
	}
	if c.scratchDirOpRes.Status == nfsproto.ErrExist && attempts > 1 {
		// CREATE is not idempotent, and the server's duplicate request cache
		// only remembers so much: an entry is evicted after DupCacheCap newer
		// requests and the whole cache dies with a reboot. A retransmitted
		// CREATE whose first execution's reply was lost and whose entry is
		// gone by then finds the file it just made already there. Recover
		// the way real NFS clients do: treat EXIST on a retried CREATE as
		// success and LOOKUP the handle.
		return c.Lookup(p, dir, name)
	}
	return &c.scratchDirOpRes, nil
}

// Mkdir makes a directory in dir.
func (c *Client) Mkdir(p *sim.Proc, dir nfsproto.FH, name string, mode uint32) (*nfsproto.DirOpRes, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcMkdir, FH: dir, Name: name, Mode: mode}); err != nil {
		return nil, err
	}
	return &c.scratchDirOpRes, nil
}

// Getattr fetches attributes.
func (c *Client) Getattr(p *sim.Proc, fh nfsproto.FH) (*nfsproto.AttrStat, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcGetattr, FH: fh}); err != nil {
		return nil, err
	}
	return &c.scratchAttrStat, nil
}

// Setattr applies attributes.
func (c *Client) Setattr(p *sim.Proc, fh nfsproto.FH, sa nfsproto.SAttr) (*nfsproto.AttrStat, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcSetattr, FH: fh, Attr: sa}); err != nil {
		return nil, err
	}
	return &c.scratchAttrStat, nil
}

// Read fetches count bytes at off. res.Data is result scratch like the
// rest of res — it may alias a block the server still caches — so it is
// read-only and dead at the caller's next blocking call.
func (c *Client) Read(p *sim.Proc, fh nfsproto.FH, off, count uint32) (*nfsproto.ReadRes, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcRead, FH: fh, Off: off, Count: count}); err != nil {
		return nil, err
	}
	return &c.scratchReadRes, nil
}

// Remove unlinks name in dir.
func (c *Client) Remove(p *sim.Proc, dir nfsproto.FH, name string) (nfsproto.Status, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcRemove, FH: dir, Name: name}); err != nil {
		return nfsproto.ErrIO, err
	}
	return c.scratchStatusRes.Status, nil
}

// Readdir lists a directory page.
func (c *Client) Readdir(p *sim.Proc, dir nfsproto.FH, cookie, count uint32) (*nfsproto.ReaddirRes, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcReaddir, FH: dir, Off: cookie, Count: count}); err != nil {
		return nil, err
	}
	return &c.scratchReaddirRes, nil
}

// Statfs reports the filesystem fh lives on. It asks the default server.
func (c *Client) Statfs(p *sim.Proc, fh nfsproto.FH) (*nfsproto.StatfsRes, error) {
	if _, err := c.do(p, &Req{Proc: nfsproto.ProcStatfs, FH: fh}); err != nil {
		return nil, err
	}
	return &c.scratchStatfsRes, nil
}

// WriteSync issues one WRITE RPC and waits for its reply, recording write
// latency and throughput counters. The payload is copied into the wire
// buffer (data may be reused by the caller immediately); the zero-copy
// twin is WriteSyncBufRelease.
func (c *Client) WriteSync(p *sim.Proc, fh nfsproto.FH, off uint32, data []byte) error {
	start := p.Now()
	if c.OnWriteEvent != nil {
		c.OnWriteEvent("send", off, len(data))
	}
	args := nfsproto.WriteArgs{File: fh, Offset: off, TotalCount: uint32(len(data)), Data: data}
	e := c.callEncoder(nfsproto.ProcWrite, args.EncodedSize())
	args.EncodeTo(e)
	reply, _, err := c.finish(p, c.start(nfsproto.ProcWrite, fh, e.Bytes(), nil, 0))
	return c.writeDone(fh, off, len(data), start, reply, err)
}

// WriteSyncBufRelease issues one WRITE RPC whose n-byte payload travels
// as a refcounted datagram body — never memmoved between the staging
// buffer and the server's buffer cache — and takes ownership of the
// caller's reference to b: it is released when the RPC completes, via
// defer, so even a kill that unwinds the calling process mid-RPC cannot
// strand it. Each transmitted datagram holds its own reference. Payload
// lengths the XDR opaque would pad fall back to the copying path.
func (c *Client) WriteSyncBufRelease(p *sim.Proc, fh nfsproto.FH, off uint32, b *block.Buf, n int) error {
	defer b.Release()
	if n%4 != 0 {
		return c.WriteSync(p, fh, off, b.Data()[:n])
	}
	start := p.Now()
	if c.OnWriteEvent != nil {
		c.OnWriteEvent("send", off, n)
	}
	e := c.encode(&Req{Proc: nfsproto.ProcWrite, FH: fh, Off: off, Count: uint32(n)})
	reply, _, err := c.finish(p, c.start(nfsproto.ProcWrite, fh, e.Bytes(), b, n))
	return c.writeDone(fh, off, n, start, reply, err)
}

// WritePattern writes one MaxData block of the audit pattern (FillPattern)
// at off: a fresh staging buffer per request, released when the RPC
// completes, because the pool must not recycle it while a queued
// duplicate datagram still references the payload.
func (c *Client) WritePattern(p *sim.Proc, fh nfsproto.FH, off uint32) error {
	buf := c.GetWriteBuf()
	FillPattern(buf.Data(), off)
	return c.WriteSyncBufRelease(p, fh, off, buf, nfsproto.MaxData)
}

// writeDone is the WRITE's decode half, shared by WriteSync,
// WriteSyncBufRelease and Go: a status other than OK is the write's error,
// and an acked write records its latency from start and its bytes.
func (c *Client) writeDone(fh nfsproto.FH, off uint32, n int, start sim.Time, reply *oncrpc.ReplyMsg, err error) error {
	if c.OnWriteEvent != nil {
		c.OnWriteEvent("reply", off, n)
	}
	st, err := c.decode(nfsproto.ProcWrite, reply, err)
	if err != nil {
		return err
	}
	if st != nfsproto.OK {
		return st.Err()
	}
	c.WriteLatency.Record(c.sim.Now().Sub(start))
	c.WriteCounter.Add(n)
	if c.OnWriteAcked != nil {
		c.OnWriteAcked(fh, off, n)
	}
	return nil
}

// biod is one block-I/O daemon: it performs queued write-behind requests.
// The active-job table entry (no yield between Get and the insert) lets
// KillBiods settle flow control for a daemon killed mid-RPC.
func (c *Client) biod(p *sim.Proc) {
	for {
		c.idleBiods++
		job := c.jobs.Get(p)
		c.idleBiods--
		if c.activeJobs == nil {
			c.activeJobs = make(map[*sim.Proc]*writeJob)
		}
		c.activeJobs[p] = job
		if job.buf != nil {
			_ = job.c.WriteSyncBufRelease(p, job.fh, job.off, job.buf, job.n)
		} else {
			_ = job.c.WriteSync(p, job.fh, job.off, job.data)
		}
		delete(c.activeJobs, p)
		c.outstanding--
		c.closeCond.Broadcast()
	}
}

// WriteBehind hands one 8K write to a biod if one is idle; otherwise the
// calling process performs the RPC itself and blocks until that particular
// request completes (§4.1's flow control). The queued case returns
// immediately, with the biod encoding data only when it dequeues the job —
// so the caller must not touch data until the write has completed (Close
// provides the barrier).
func (c *Client) WriteBehind(p *sim.Proc, fh nfsproto.FH, off uint32, data []byte) error {
	if c.idleBiods > c.jobs.Len() {
		c.outstanding++
		if c.OnWriteBuffered != nil {
			c.OnWriteBuffered(fh, off, len(data))
		}
		c.jobs.Put(&writeJob{fh: fh, off: off, data: data, c: c})
		return nil
	}
	return c.WriteSync(p, fh, off, data)
}

// writeBehindBuf is WriteBehind for a pooled staging buffer: ownership of
// the caller's reference passes to the write path, which releases it when
// the RPC completes.
func (c *Client) writeBehindBuf(p *sim.Proc, fh nfsproto.FH, off uint32, b *block.Buf, n int) error {
	if c.idleBiods > c.jobs.Len() {
		c.outstanding++
		if c.OnWriteBuffered != nil {
			c.OnWriteBuffered(fh, off, n)
		}
		c.jobs.Put(&writeJob{fh: fh, off: off, buf: b, n: n, c: c})
		return nil
	}
	return c.WriteSyncBufRelease(p, fh, off, b, n)
}

// Close blocks until all outstanding write-behind requests have received
// responses — the sync-on-close semantic most NFS clients impose (§4.1).
func (c *Client) Close(p *sim.Proc) {
	for c.outstanding > 0 {
		c.closeCond.Wait(p)
	}
}

// AdoptApp registers an application process as part of this client host:
// a Crash kills it along with the daemons, because the workstation it ran
// on is gone. Workload runners that support client faults register their
// driver processes here.
func (c *Client) AdoptApp(p *sim.Proc) { c.apps = append(c.apps, p) }

// AppsKilled reports how many registered application processes were still
// running when a Crash took them down — the runner's accounting for
// streams that can never finish.
func (c *Client) AppsKilled() int { return c.appsKilled }

// Crash kills the client host instantaneously: the biod pool and every
// adopted application process die mid-operation, the socket buffer is lost
// with the interface (and its reply demultiplexer with it), and the dirty
// write-behind queue — writes the application was told "done" about but
// no server ever acked — is discarded, exactly what a workstation power
// cycle loses. Pending RPCs clean themselves up as their killed callers
// unwind. The platters of this story live on the servers; a client has
// none.
func (c *Client) Crash() {
	if c.Down {
		return
	}
	for _, pr := range c.apps {
		if !pr.Done() && !pr.Killed() {
			c.appsKilled++
		}
		c.sim.Kill(pr)
	}
	c.apps = c.apps[:0]
	for _, pr := range c.daemons {
		c.sim.Kill(pr)
	}
	c.daemons = c.daemons[:0]
	c.activeJobs = nil
	c.net.Detach(c.name)
	// Dirty write-behind dies with host memory; queued jobs still hold
	// their staging-buffer references.
	for {
		job, ok := c.jobs.TryGet()
		if !ok {
			break
		}
		if job.buf != nil {
			job.buf.Release()
		}
	}
	c.dropReplyBody() // host memory
	// Flow-control state resets with the daemons: killed biods never run
	// their post-Get bookkeeping, and nothing outstanding can complete.
	c.idleBiods = 0
	c.outstanding = 0
	c.Down = true
}

// Reboot brings the client host back: a fresh interface attachment served
// by a fresh demultiplexer, and a fresh biod pool. Applications do not
// restart — whatever stream was interrupted stays interrupted, as it would
// on a real workstation — and the write-behind dropped by the crash stays
// dropped: NFS promises durability only for server-acked bytes.
func (c *Client) Reboot() {
	if !c.Down {
		return
	}
	c.ep = c.net.Attach(c.name, 0, 0)
	c.startDaemons()
}

// KillBiods kills up to n biod daemons (the biod-loss fault): the pool
// shrinks for the rest of the run, degrading write-behind to §4.1's
// do-it-yourself flow control. A daemon killed mid-RPC abandons its write
// — never acked, so never a durability obligation — and its flow-control
// slot is settled here so a later Close does not wait on a corpse. It
// returns how many daemons actually died.
func (c *Client) KillBiods(n int) int {
	killed := 0
	for i := len(c.daemons) - 1; i >= 0 && killed < n; i-- {
		pr := c.daemons[i]
		if pr.Done() || pr.Killed() {
			continue
		}
		if job, busy := c.activeJobs[pr]; busy {
			delete(c.activeJobs, pr)
			_ = job // the unwinding WriteSyncBufRelease releases job.buf
			c.outstanding--
			c.closeCond.Broadcast()
		} else {
			// An idle biod parked in Get already counted itself idle and
			// will never run the post-Get decrement.
			c.idleBiods--
		}
		c.sim.Kill(pr)
		c.daemons = append(c.daemons[:i], c.daemons[i+1:]...)
		c.numBiods--
		killed++
	}
	// With the whole pool gone, jobs already queued have no consumer left
	// (queueing races the kill within one instant): they are abandoned
	// unacked like a killed daemon's in-flight write, and their
	// flow-control slots settle here so Close never hangs on them.
	if c.numBiods == 0 {
		for {
			job, ok := c.jobs.TryGet()
			if !ok {
				break
			}
			if job.buf != nil {
				job.buf.Release()
			}
			c.outstanding--
		}
		c.closeCond.Broadcast()
	} else {
		// A killed idle daemon may have consumed a same-instant Put's
		// wake-up before ever running; re-queue the jobs so each Put
		// re-issues the signal to a surviving daemon (write-behind is
		// unordered, so the rotation is harmless).
		for i, n := 0, c.jobs.Len(); i < n; i++ {
			if job, ok := c.jobs.TryGet(); ok {
				c.jobs.Put(job)
			}
		}
	}
	c.BiodsLost += killed
	return killed
}

// Outstanding reports in-flight write-behind requests (diagnostics).
func (c *Client) Outstanding() int { return c.outstanding }

// ShardIndex places a key (typically a file name) on one of n export
// shards by FNV-1a hash. It is THE placement function: workloads spreading
// working sets, cluster shard maps, and checkers resolving owners must all
// hash identically, so none of them may roll their own.
func ShardIndex(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// FillPattern writes the deterministic audit pattern for file offset off
// into buf; crash tests regenerate it to check recovered contents.
//
// The byte at absolute offset x is byte(x*2654435761 + x>>13). Within an
// 8K-aligned window the x>>13 term is constant and the x*K term only
// depends on x mod 256, so the pattern repeats every 256 bytes; the fast
// path fills one period and doubles it with copy.
func FillPattern(buf []byte, off uint32) {
	head := len(buf)
	if off&8191 == 0 && head <= 8192 {
		if head > 256 {
			head = 256
		}
		for i := 0; i < head; i++ {
			x := off + uint32(i)
			buf[i] = byte(x*2654435761 + x>>13)
		}
		for i := head; i < len(buf); i *= 2 {
			copy(buf[i:], buf[:i])
		}
		return
	}
	for i := range buf {
		x := off + uint32(i)
		buf[i] = byte(x*2654435761 + x>>13)
	}
}

// WriteFile writes size bytes of audit pattern to fh sequentially in 8K
// requests, modelling the application + kernel cost per request, then
// closes. It returns the elapsed time from first byte to close completion.
func (c *Client) WriteFile(p *sim.Proc, fh nfsproto.FH, size int) (sim.Duration, error) {
	start := p.Now()
	// A host crash can kill this process while a staging buffer is filled
	// but not yet handed to the write path (the WriteGenerate sleep); the
	// deferred release keeps the pool's accounting exact across the kill.
	var staged *block.Buf
	defer func() {
		if staged != nil {
			staged.Release()
		}
	}()
	var off uint32
	for remaining := size; remaining > 0; {
		n := nfsproto.MaxData
		if n > remaining {
			n = remaining
		}
		buf := c.GetWriteBuf()
		staged = buf
		FillPattern(buf.Data()[:n], off)
		p.Sleep(c.params.WriteGenerate)
		staged = nil // ownership passes to the write path, which releases
		if err := c.writeBehindBuf(p, fh, off, buf, n); err != nil {
			return 0, err
		}
		off += uint32(n)
		remaining -= n
	}
	c.Close(p)
	return p.Now().Sub(start), nil
}
