package server

import (
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/oncrpc"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// nfsd is one server daemon: it drains the socket buffer forever,
// processing one request at a time (§4.2).
func (s *Server) nfsd(p *sim.Proc, id int) {
	for {
		s.serveOne(p, id, s.ep.Inbox.Get(p))
	}
}

// serveOne handles one datagram. The release is deferred so a crash that
// kills the nfsd mid-request (unwinding out of a device sleep or a
// procrastination) still drops the datagram's payload reference — without
// this, every request in flight at a crash would leak its body buffer.
func (s *Server) serveOne(p *sim.Proc, id int, dg *netsim.Datagram) {
	defer dg.Release()
	if s.OnServe != nil {
		queued, start := dg.Sent, p.Now()
		s.handle(p, id, dg)
		// The parse memoized by handle carries proc/xid; a call too
		// mangled to decode reports zeros. Placed after handle returns
		// (not deferred), so a crash that unwinds the nfsd mid-request
		// leaves no span — matching what the dead daemon got done.
		var proc nfsproto.Proc
		var xid uint32
		if pc, ok := dg.Parsed.(*parsedCall); ok && !pc.bad {
			proc, xid = pc.proc, pc.call.XID
		}
		s.OnServe(id, proc, xid, queued, start, p.Now())
	} else {
		s.handle(p, id, dg)
	}
	// The datagram's hold on its parse ends here (decoded slices alias the
	// payload, not the record). A gathered WRITE whose reply is still owed
	// keeps the record alive until writeSent lets go of it; every other
	// record goes back to the pool now. writeSent reads only what the
	// decode copied out of the head (the handle, the offset, the data's
	// length), never the head's bytes, so it needs no head reference.
	if pc, ok := dg.Parsed.(*parsedCall); ok {
		s.releasePC(pc)
	}
}

// parsedCall is the memoized decode of a queued datagram, shared between
// the dispatch path and the mbuf hunter. Records are pooled on the server
// and embed their decode targets, so the steady-state request path does
// not allocate per message.
//
// A record has up to two owners: the datagram it was decoded from, until
// serveOne has handled it (and reported it to OnServe), and, for a
// gathered WRITE, the reply owed while its descriptor is queued, until
// writeSent has sent it. Either may let go first; the record returns to
// the pool when both have (releasePC).
type parsedCall struct {
	call     oncrpc.CallMsg
	proc     nfsproto.Proc
	write    *nfsproto.WriteArgs // non-nil for a WRITE whose args decoded
	writeBuf nfsproto.WriteArgs
	// body is the datagram's refcounted payload segment for a WRITE
	// (writeBuf.Data aliases it). It is a borrow of the datagram's
	// reference, valid only while the datagram is live; the filesystem
	// takes its own reference if it adopts the buffer.
	body *block.Buf
	bad  bool // the RPC header did not decode: no XID to answer

	// A gathered WRITE: the descriptor the engine queues and the dup-cache
	// key its reply goes out under. sent is the method value writeSent,
	// bound once when the record is made; doWrite makes it desc.Send.
	desc core.WriteDesc
	key  dupKey
	sent func(p *sim.Proc, ok bool)

	owners int // holders of the record; 0 = parked in the pool
	srv    *Server
}

// getPC takes a parse record from the pool, owned by the caller.
func (s *Server) getPC() *parsedCall {
	var pc *parsedCall
	if n := len(s.freePC); n > 0 {
		pc = s.freePC[n-1]
		s.freePC = s.freePC[:n-1]
		pc.write = nil
		pc.bad = false
	} else {
		pc = &parsedCall{srv: s}
		pc.sent = pc.writeSent
		s.madePC++
	}
	pc.owners = 1
	return pc
}

// releasePC drops one owner's hold on pc and parks it once nobody holds it.
func (s *Server) releasePC(pc *parsedCall) {
	pc.owners--
	if pc.owners < 0 {
		panic("server: parse record released more often than it was held")
	}
	if pc.owners == 0 {
		s.putPC(pc)
	}
}

// putPC parks a parse record for reuse. Its decoded call and write
// arguments alias the request's wire head, a borrow of the datagram's
// reference, so they are cleared: a pooled record must not read a head its
// datagram has released.
func (s *Server) putPC(pc *parsedCall) {
	pc.call = oncrpc.CallMsg{}
	pc.writeBuf = nfsproto.WriteArgs{}
	pc.body = nil
	s.freePC = append(s.freePC, pc)
}

// peek decodes a datagram once, caching the result on the datagram. A
// WRITE decodes its argument head from the contiguous payload and aliases
// the data straight out of the datagram's body buffer.
func (s *Server) peek(dg *netsim.Datagram) *parsedCall {
	if pc, ok := dg.Parsed.(*parsedCall); ok {
		return pc
	}
	pc := s.getPC()
	if err := oncrpc.DecodeCallInto(dg.Payload, &pc.call); err != nil {
		pc.bad = true
	} else {
		pc.proc = nfsproto.Proc(pc.call.Proc)
		// A WRITE with no body, or whose head does not decode, leaves
		// pc.write nil: handle answers it GARBAGE_ARGS.
		if pc.proc == nfsproto.ProcWrite && dg.Body != nil &&
			nfsproto.DecodeWriteArgsSplitInto(pc.call.Args, dg.Body.Data()[:dg.BodyLen], &pc.writeBuf) == nil {
			pc.write, pc.body = &pc.writeBuf, dg.Body
		}
	}
	dg.Parsed = pc
	return pc
}

// hunt is the mbuf hunter (§6.5): scan the socket buffer for another WRITE
// to the same file, skipping retransmissions already known to the
// duplicate cache (§6.9).
func (s *Server) hunt(ino vfs.Ino) bool {
	_, found := s.ep.Inbox.Scan(func(dg *netsim.Datagram) bool {
		pc := s.peek(dg)
		if pc.bad || pc.write == nil {
			return false
		}
		if vfs.Ino(pc.write.File.Ino()) != ino {
			return false
		}
		return !s.dup.contains(dupKey{client: dg.From, xid: pc.call.XID})
	}, false)
	return found
}

// handle processes one datagram on nfsd id.
func (s *Server) handle(p *sim.Proc, id int, dg *netsim.Datagram) {
	costs := &s.cfg.Costs
	// Packet input processing: one charge per link fragment, plus
	// dequeue/RPC decode/dispatch.
	s.charge(p, sim.Duration(dg.Frags)*costs.PerFragment+costs.RPCDispatch)

	pc := s.peek(dg)
	if pc.bad {
		s.BadCalls++
		return
	}
	call := &pc.call
	k := dupKey{client: dg.From, xid: call.XID}
	if call.Prog != nfsproto.Program || call.Vers != nfsproto.Version {
		s.replyError(p, k, oncrpc.ProgUnavail)
		return
	}

	if e, isDup := s.dup.begin(k); isDup {
		switch e.state {
		case dupInProgress:
			// Drop the retransmission — but if this was a write whose
			// gather is now orphaned (its promised follower was this very
			// duplicate), adopt it (§6.9).
			s.DupDrops++
			if s.engine != nil && pc.write != nil {
				s.engine.AdoptOrphan(p, id, vfs.Ino(pc.write.File.Ino()))
			}
			return
		case dupDone:
			s.DupResends++
			s.resend(p, dg.From, e)
			return
		}
	}

	switch pc.proc {
	case nfsproto.ProcNull:
		s.replyEmpty(p, k)
		s.count(pc.proc, 0)
	case nfsproto.ProcGetattr:
		s.doGetattr(p, k, call)
	case nfsproto.ProcSetattr:
		s.doSetattr(p, k, call)
	case nfsproto.ProcLookup:
		s.doLookup(p, k, call)
	case nfsproto.ProcRead:
		s.doRead(p, k, call)
	case nfsproto.ProcWrite:
		if pc.write == nil {
			s.replyError(p, k, oncrpc.GarbageArgs) // peek could not decode the args
			return
		}
		s.doWrite(p, id, k, pc)
	case nfsproto.ProcCreate:
		s.doCreate(p, k, call, false)
	case nfsproto.ProcMkdir:
		s.doCreate(p, k, call, true)
	case nfsproto.ProcRemove:
		s.doRemove(p, k, call, false)
	case nfsproto.ProcRmdir:
		s.doRemove(p, k, call, true)
	case nfsproto.ProcRename:
		s.doRename(p, k, call)
	case nfsproto.ProcReaddir:
		s.doReaddir(p, k, call)
	case nfsproto.ProcStatfs:
		s.doStatfs(p, k, call)
	default:
		s.replyError(p, k, oncrpc.ProcUnavail)
	}
}

// Result scratch: each handler takes a per-server scratch struct AFTER
// its last yielding filesystem call, fills it, and encodes it into the
// wire buffer before its next yield, so a single instance per type
// suffices even with many nfsds — by the time another process can run,
// the scratch has already been serialized. Taking the scratch before a
// yielding call would let a concurrent nfsd reset or refill it mid-use.

func (s *Server) resAttrStat() *nfsproto.AttrStat {
	s.scratchAttrStat = nfsproto.AttrStat{}
	return &s.scratchAttrStat
}

func (s *Server) resDirOpRes() *nfsproto.DirOpRes {
	s.scratchDirOpRes = nfsproto.DirOpRes{}
	return &s.scratchDirOpRes
}

func (s *Server) resStatusRes() *nfsproto.StatusRes {
	s.scratchStatusRes = nfsproto.StatusRes{}
	return &s.scratchStatusRes
}

func (s *Server) resReadRes() *nfsproto.ReadRes {
	s.scratchReadRes = nfsproto.ReadRes{Data: nil}
	return &s.scratchReadRes
}

func (s *Server) resReaddirRes() *nfsproto.ReaddirRes {
	s.scratchReaddirRes.Status = 0
	s.scratchReaddirRes.EOF = false
	s.scratchReaddirRes.Entries = s.scratchReaddirRes.Entries[:0]
	return &s.scratchReaddirRes
}

func (s *Server) resStatfsRes() *nfsproto.StatfsRes {
	return &s.scratchStatfsRes
}

// getReadBuf takes a READ staging buffer from the pool. It is returned
// via putReadBuf once the reply has been encoded; reads in flight on other
// nfsds hold their own buffers.
func (s *Server) getReadBuf(n int) []byte {
	if k := len(s.readBufs); k > 0 {
		b := s.readBufs[k-1]
		s.readBufs = s.readBufs[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n, nfsproto.MaxData)
}

func (s *Server) putReadBuf(b []byte) {
	if cap(b) == nfsproto.MaxData {
		s.readBufs = append(s.readBufs, b[:0])
	}
}

// successHeader appends the accepted-success header, carrying the boot
// verifier when this server build advertises one.
func (s *Server) successHeader(e *xdr.Encoder, xid uint32) {
	if s.cfg.BootVerifier != 0 {
		oncrpc.AppendSuccessHeaderBootVerf(e, xid, s.cfg.BootVerifier)
		return
	}
	oncrpc.AppendSuccessHeader(e, xid)
}

// successHeaderSize is the size the successHeader will occupy.
func (s *Server) successHeaderSize() int {
	if s.cfg.BootVerifier != 0 {
		return oncrpc.SuccessHeaderSize + oncrpc.BootVerfSize
	}
	return oncrpc.SuccessHeaderSize
}

// reply encodes, records and transmits a successful RPC reply. The RPC
// header and procedure results share a single wire head of exactly their
// size (Network.Encoder); no intermediate results slice is allocated.
func (s *Server) reply(p *sim.Proc, k dupKey, res xdr.Record) {
	e := s.net.Encoder(s.successHeaderSize() + res.EncodedSize())
	s.successHeader(e, k.xid)
	res.EncodeTo(e)
	s.finishReply(p, k, s.net.Encoded(), nil, 0)
}

// replyError answers k with an accepted reply of status st and forgets
// its dup entry, so that a retransmission of the call executes afresh.
func (s *Server) replyError(p *sim.Proc, k dupKey, st oncrpc.AcceptStat) {
	s.dup.forget(k)
	r := oncrpc.ErrorReply(k.xid, st)
	r.EncodeTo(s.net.Encoder(r.EncodedSize()))
	h := s.net.Encoded()
	defer h.Release()
	s.send(p, k.client, h, nil, 0)
}

// replyEmpty sends a success reply with empty results (NULL).
func (s *Server) replyEmpty(p *sim.Proc, k dupKey) {
	s.successHeader(s.net.Encoder(s.successHeaderSize()), k.xid)
	s.finishReply(p, k, s.net.Encoded(), nil, 0)
}

// replyRead sends a successful READ whose n data bytes are the front of
// blk: only the RPC header and the result head are encoded, the block
// rides the datagram by reference and the dup cache keeps a reference of
// its own for resends. The wire — bytes, fragments, CPU charge — is that
// of the contiguous reply.
func (s *Server) replyRead(p *sim.Proc, k dupKey, attr *nfsproto.FAttr, blk *block.Buf, n int) {
	e := s.net.Encoder(s.successHeaderSize() + nfsproto.ReadResHeadSize)
	s.successHeader(e, k.xid)
	nfsproto.AppendReadResHead(e, attr, n)
	s.finishReply(p, k, s.net.Encoded(), blk, n)
}

// finishReply records an encoded reply in the dup cache and sends it. The
// nfsd's reference to the head lasts the send and is released by defer,
// so an nfsd killed mid-send drops it too.
func (s *Server) finishReply(p *sim.Proc, k dupKey, h netsim.Head, body *block.Buf, n int) {
	defer h.Release()
	s.dup.done(k, h, body, n)
	s.send(p, k.client, h, body, n)
}

// send charges the reply's CPU and transmits head h, followed by n bytes
// of body when it is not nil. The datagram takes its references only once
// it has serialized, so the caller must hold its own across the call.
func (s *Server) send(p *sim.Proc, to string, h netsim.Head, body *block.Buf, n int) {
	s.charge(p, s.cfg.Costs.ReplySend)
	s.net.SendHead(p, s.cfg.Name, to, h, body, n)
	s.RepliesSent++
}

// resend answers a retransmission with the reply the dup cache kept. The
// entry can be evicted while the send sleeps on the CPU or the medium, so
// its head and a split reply's block are pinned for the duration; the
// releases are deferred so an nfsd killed mid-send drops the pins.
func (s *Server) resend(p *sim.Proc, to string, e *dupEntry) {
	h := e.reply.Ref()
	defer h.Release()
	body := e.body
	if body != nil {
		body.Ref()
		defer body.Release()
	}
	s.send(p, to, h, body, e.bodyLen)
}

// timeVal converts virtual time to an NFS timeval.
func timeVal(t sim.Time) nfsproto.TimeVal {
	us := int64(t)
	return nfsproto.TimeVal{Sec: uint32(us / 1_000_000), USec: uint32(us % 1_000_000)}
}

// fattrOf converts vfs attributes for a handle into the wire form.
func fattrOf(fh nfsproto.FH, a vfs.Attr) nfsproto.FAttr {
	ft := nfsproto.TypeReg
	mode := a.Mode | 0o100000
	if a.Type == vfs.TypeDir {
		ft = nfsproto.TypeDir
		mode = a.Mode | 0o040000
	}
	return nfsproto.FAttr{
		Type: ft, Mode: mode, NLink: a.NLink, UID: a.UID, GID: a.GID,
		Size: a.Size, BlockSize: 8192, Blocks: a.Blocks, FSID: fh.FSID(),
		FileID: uint32(fh.Ino()),
		ATime:  timeVal(a.ATime), MTime: timeVal(a.MTime), CTime: timeVal(a.CTime),
	}
}

// errStatus maps filesystem errors to NFS statuses.
func errStatus(err error) nfsproto.Status {
	switch err {
	case nil:
		return nfsproto.OK
	case vfs.ErrNoEnt:
		return nfsproto.ErrNoEnt
	case vfs.ErrExist:
		return nfsproto.ErrExist
	case vfs.ErrNotDir:
		return nfsproto.ErrNotDir
	case vfs.ErrIsDir:
		return nfsproto.ErrIsDir
	case vfs.ErrNotEmpty:
		return nfsproto.ErrNotEmpty
	case vfs.ErrNoSpace:
		return nfsproto.ErrNoSpc
	case vfs.ErrStale:
		return nfsproto.ErrStale
	case vfs.ErrFBig:
		return nfsproto.ErrFBig
	default:
		return nfsproto.ErrIO
	}
}

// handleFor builds the wire file handle for an inode.
func (s *Server) handleFor(p *sim.Proc, ino vfs.Ino) (nfsproto.FH, vfs.Attr, error) {
	a, err := s.fs.GetAttr(p, ino)
	if err != nil {
		return nfsproto.FH{}, a, err
	}
	return nfsproto.NewFH(s.fs.FSID(), uint64(ino), a.Gen), a, nil
}

// RootFH returns the exported root file handle (what MOUNT would hand out).
func (s *Server) RootFH() nfsproto.FH {
	return nfsproto.NewFH(s.fs.FSID(), uint64(s.fs.Root()), 0)
}

func (s *Server) doGetattr(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.LookupPath/2)
	var args nfsproto.FHArgs // per call: the handle outlives the yielding GetAttr
	if err := nfsproto.DecodeFHArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	a, gerr := s.fs.GetAttr(p, vfs.Ino(args.File.Ino()))
	res := s.resAttrStat()
	if gerr != nil {
		res.Status = errStatus(gerr)
	} else {
		res.Attr = fattrOf(args.File, a)
	}
	s.reply(p, k, res)
	s.count(nfsproto.ProcGetattr, 0)
}

func (s *Server) doSetattr(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.MetaUpdate)
	var args nfsproto.SetattrArgs
	if err := nfsproto.DecodeSetattrArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	sa := vfs.SetAttr{}
	if args.Attr.Mode != nfsproto.NoValue {
		m := args.Attr.Mode
		sa.Mode = &m
	}
	if args.Attr.UID != nfsproto.NoValue {
		u := args.Attr.UID
		sa.UID = &u
	}
	if args.Attr.GID != nfsproto.NoValue {
		g := args.Attr.GID
		sa.GID = &g
	}
	if args.Attr.Size != nfsproto.NoValue {
		z := args.Attr.Size
		sa.Size = &z
	}
	a, serr := s.fs.SetAttrs(p, vfs.Ino(args.File.Ino()), sa)
	res := s.resAttrStat()
	if serr != nil {
		res.Status = errStatus(serr)
	} else {
		res.Attr = fattrOf(args.File, a)
	}
	s.reply(p, k, res)
	s.count(nfsproto.ProcSetattr, 0)
}

func (s *Server) doLookup(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.LookupPath)
	var args nfsproto.DirOpArgs
	if err := nfsproto.DecodeDirOpArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	ino, lerr := s.fs.Lookup(p, vfs.Ino(args.Dir.Ino()), args.Name)
	res := s.resDirOpRes()
	if lerr != nil {
		res.Status = errStatus(lerr)
	} else if fh, a, herr := s.handleFor(p, ino); herr != nil {
		res.Status = errStatus(herr)
	} else {
		res.File = fh
		res.Attr = fattrOf(fh, a)
	}
	s.reply(p, k, res)
	s.count(nfsproto.ProcLookup, 0)
}

func (s *Server) doRead(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.ReadPath)
	var args nfsproto.ReadArgs // per call: used again after the yielding read
	if err := nfsproto.DecodeReadArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	count := args.Count
	if count > nfsproto.MaxData {
		count = nfsproto.MaxData
	}
	buf := s.getReadBuf(int(count))
	ino := vfs.Ino(args.File.Ino())
	blk, n, rerr := s.fs.ReadBuf(p, ino, args.Offset, buf)
	if blk != nil {
		// The filesystem answered with the cache block itself and left the
		// staging buffer alone. This nfsd owns the reference until the
		// reply is out, also when a crash unwinds it on the way.
		defer blk.Release()
	}
	res := s.resReadRes()
	if rerr != nil {
		res.Status = errStatus(rerr)
	} else {
		a, _ := s.fs.GetAttr(p, ino)
		res.Attr = fattrOf(args.File, a)
		res.Data = buf[:n]
	}
	if blk != nil {
		s.replyRead(p, k, &res.Attr, blk, n)
	} else {
		s.reply(p, k, res)
	}
	// Either way the staging buffer is free again: reply has copied its
	// data into the wire buffer, replyRead never looked at it.
	s.putReadBuf(buf)
	s.count(nfsproto.ProcRead, n)
}

// doWrite is the server write layer: the standard fully synchronous path,
// or the gathering path when enabled.
func (s *Server) doWrite(p *sim.Proc, id int, k dupKey, pc *parsedCall) {
	args := pc.write
	ino := vfs.Ino(args.File.Ino())
	s.charge(p, s.cfg.Costs.VopWriteData)

	if s.engine == nil {
		// Standard server: VOP_WRITE with IO_SYNC commits data and
		// metadata before the reply, serialized on the vnode lock as the
		// reference port does. The payload lands through the zero-copy
		// entry point.
		s.locks.Lock(p, ino)
		err := s.fs.WriteBuf(p, ino, args.Offset, pc.body, len(args.Data), vfs.IOSync)
		s.locks.Unlock(ino)
		s.writeReply(p, k, args, ino, err == nil, err)
		return
	}

	// Gathering server (§6.8). The reply is detached into the descriptor,
	// which lives in the parse record; whichever nfsd becomes the metadata
	// writer sends it, and the owed reply holds the record until then.
	s.charge(p, s.cfg.Costs.GatherCheck)
	pc.key = k
	pc.desc = core.WriteDesc{
		Ino:     ino,
		Offset:  args.Offset,
		Length:  uint32(len(args.Data)),
		Body:    pc.body,
		Arrived: s.sim.Now(),
		Send:    pc.sent,
	}
	pc.owners++
	// Errors are reported through Send(ok=false); nothing more to do here.
	_ = s.engine.HandleWrite(p, id, &pc.desc, args.Data)
}

// writeSent is a gathered WRITE's reply (its descriptor's Send): it answers
// the call and lets go of the record the reply held.
func (pc *parsedCall) writeSent(p *sim.Proc, ok bool) {
	s := pc.srv
	s.writeReply(p, pc.key, pc.write, pc.desc.Ino, ok, nil)
	s.releasePC(pc)
}

// writeReply builds and sends a WRITE reply.
func (s *Server) writeReply(p *sim.Proc, k dupKey, args *nfsproto.WriteArgs, ino vfs.Ino, ok bool, err error) {
	res := s.resAttrStat()
	if !ok || err != nil {
		if err == nil {
			err = vfs.ErrNoSpace
		}
		res.Status = errStatus(err)
	} else {
		a, gerr := s.fs.GetAttr(p, ino)
		if gerr != nil {
			res.Status = errStatus(gerr)
		} else {
			res.Attr = fattrOf(args.File, a)
		}
	}
	s.reply(p, k, res)
	s.count(nfsproto.ProcWrite, len(args.Data))
}

func (s *Server) doCreate(p *sim.Proc, k dupKey, call *oncrpc.CallMsg, dir bool) {
	s.charge(p, s.cfg.Costs.VopWriteData)
	var args nfsproto.CreateArgs
	if err := nfsproto.DecodeCreateArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	mode := args.Attr.Mode
	if mode == nfsproto.NoValue {
		mode = 0644
	}
	var ino vfs.Ino
	var cerr error
	if dir {
		ino, cerr = s.fs.Mkdir(p, vfs.Ino(args.Where.Dir.Ino()), args.Where.Name, mode)
	} else {
		ino, cerr = s.fs.Create(p, vfs.Ino(args.Where.Dir.Ino()), args.Where.Name, mode)
	}
	res := s.resDirOpRes()
	if cerr != nil {
		res.Status = errStatus(cerr)
	} else if fh, a, herr := s.handleFor(p, ino); herr != nil {
		res.Status = errStatus(herr)
	} else {
		res.File = fh
		res.Attr = fattrOf(fh, a)
	}
	s.reply(p, k, res)
	if dir {
		s.count(nfsproto.ProcMkdir, 0)
	} else {
		s.count(nfsproto.ProcCreate, 0)
	}
}

func (s *Server) doRemove(p *sim.Proc, k dupKey, call *oncrpc.CallMsg, dir bool) {
	s.charge(p, s.cfg.Costs.VopWriteData)
	var args nfsproto.DirOpArgs
	if err := nfsproto.DecodeDirOpArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	var rerr error
	if dir {
		rerr = s.fs.Rmdir(p, vfs.Ino(args.Dir.Ino()), args.Name)
	} else {
		rerr = s.fs.Remove(p, vfs.Ino(args.Dir.Ino()), args.Name)
	}
	res := s.resStatusRes()
	res.Status = errStatus(rerr)
	s.reply(p, k, res)
	if dir {
		s.count(nfsproto.ProcRmdir, 0)
	} else {
		s.count(nfsproto.ProcRemove, 0)
	}
}

func (s *Server) doRename(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.VopWriteData)
	var args nfsproto.RenameArgs
	if err := nfsproto.DecodeRenameArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	rerr := s.fs.Rename(p,
		vfs.Ino(args.From.Dir.Ino()), args.From.Name,
		vfs.Ino(args.To.Dir.Ino()), args.To.Name)
	res := s.resStatusRes()
	res.Status = errStatus(rerr)
	s.reply(p, k, res)
	s.count(nfsproto.ProcRename, 0)
}

func (s *Server) doReaddir(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.ReadPath)
	var args nfsproto.ReaddirArgs
	if err := nfsproto.DecodeReaddirArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	// The entry scratch follows the result-scratch rule: ufs appends to it
	// after its last yield (loadDir), and the entries are copied into the
	// result and encoded before this handler's next yield, so a concurrent
	// READDIR on another nfsd never sees it half filled.
	ents, eof, rerr := s.fs.Readdir(p, vfs.Ino(args.Dir.Ino()), args.Cookie, int(args.Count), s.scratchDirEnts[:0])
	s.scratchDirEnts = ents
	res := s.resReaddirRes()
	if rerr != nil {
		res.Status = errStatus(rerr)
	} else {
		res.EOF = eof
		for _, e := range ents {
			res.Entries = append(res.Entries, nfsproto.DirEntry{
				FileID: uint32(e.Ino), Name: e.Name, Cookie: e.Cookie,
			})
		}
	}
	s.reply(p, k, res)
	s.count(nfsproto.ProcReaddir, 0)
}

func (s *Server) doStatfs(p *sim.Proc, k dupKey, call *oncrpc.CallMsg) {
	s.charge(p, s.cfg.Costs.LookupPath/2)
	var args nfsproto.FHArgs
	if err := nfsproto.DecodeFHArgsInto(call.Args, &args); err != nil {
		s.replyError(p, k, oncrpc.GarbageArgs)
		return
	}
	bs, blocks, free := s.fs.Statfs(p)
	res := s.resStatfsRes()
	*res = nfsproto.StatfsRes{
		Status: nfsproto.OK, TSize: 8192, BSize: uint32(bs),
		Blocks: uint32(blocks), BFree: uint32(free), BAvail: uint32(free),
	}
	s.reply(p, k, res)
	s.count(nfsproto.ProcStatfs, 0)
}
