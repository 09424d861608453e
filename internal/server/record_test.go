package server

import (
	"fmt"
	"testing"

	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// TestGatheredWriteRecordReturnsOnce holds a gathered WRITE's parse record
// to its two owners. With OnServe set, serveOne reads the record after
// handle, so a record the reply had already parked would report a zero
// xid (putPC clears the call) or a later call's. Both ways a reply can
// leave are driven: one synchronous WRITE at a time, which its own nfsd
// commits and answers, and a write-behind stream, where nfsds leave their
// replies to another nfsd's commit. Every WRITE must be reported once with
// its own xid, and at quiesce every record must be in the pool exactly
// once.
func TestGatheredWriteRecordReturnsOnce(t *testing.T) {
	for _, c := range []struct {
		name  string
		biods int
		// handedOff: some reply was sent by an nfsd other than the one that
		// decoded its call.
		handedOff bool
	}{
		{"own nfsd replies", 0, false},
		{"another nfsd replies", 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 3, rigOpts{gathering: true, biods: c.biods, fddi: true})
			xids := map[uint32]int{}
			r.srv.OnServe = func(_ int, proc nfsproto.Proc, xid uint32, _, _, _ sim.Time) {
				if proc == nfsproto.ProcWrite {
					xids[xid]++
				}
			}
			r.sim.Spawn("app", func(p *sim.Proc) {
				cres, err := r.cli.Create(p, r.srv.RootFH(), "f", 0644)
				if err != nil || cres.Status != nfsproto.OK {
					t.Errorf("create: %v %v", err, cres)
					return
				}
				if _, err := r.cli.WriteFile(p, cres.File, 32*nfsproto.MaxData); err != nil {
					t.Errorf("WriteFile: %v", err)
				}
			})
			r.sim.Run(0)

			st := r.srv.Engine().Stats()
			if handedOff := st.HandoffsToActive+st.HunterHits > 0; handedOff != c.handedOff {
				t.Fatalf("replies handed to another nfsd: %v, want %v (%+v)", handedOff, c.handedOff, st)
			}
			if st.Writes != 32 || len(xids) != 32 {
				t.Fatalf("engine took %d writes, OnServe reported %d distinct WRITE xids; want 32 each", st.Writes, len(xids))
			}
			for xid, n := range xids {
				if xid == 0 || n != 1 {
					t.Fatalf("OnServe reported xid %d %d times: a record was parked before serveOne was done with it", xid, n)
				}
			}
			seen := map[*parsedCall]bool{}
			for _, pc := range r.srv.freePC {
				if seen[pc] {
					t.Fatal("a parse record is in the pool twice")
				}
				seen[pc] = true
				if pc.owners != 0 {
					t.Fatalf("a pooled parse record has %d owners", pc.owners)
				}
			}
			if err := r.srv.CheckWriteLedger(); err != nil {
				t.Fatal(err)
			}
			// The pool is reused, not refilled: far fewer records than calls.
			if r.srv.madePC >= int(st.Writes) {
				t.Fatalf("%d parse records made for %d WRITEs", r.srv.madePC, st.Writes)
			}
		})
	}
}

// TestParseRecordDoubleReleasePanics plants a release with no owner left:
// the count must not go below zero, or a record could sit in the pool
// twice and be handed to two calls at once.
func TestParseRecordDoubleReleasePanics(t *testing.T) {
	r := newRig(t, 1, rigOpts{gathering: true})
	pc := r.srv.getPC()
	r.srv.releasePC(pc)
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of a parked record did not panic")
		}
	}()
	r.srv.releasePC(pc)
}

// TestWriteLedgerAuditFires holds the server's write-descriptor ledger to
// both sides: after a gathered write stream it balances, and a planted
// violation (one parse record held back from the pool) is reported with
// the server's name and the numbers.
func TestWriteLedgerAuditFires(t *testing.T) {
	r := newRig(t, 2, rigOpts{gathering: true, biods: 4, fddi: true})
	r.sim.Spawn("app", func(p *sim.Proc) {
		cres, err := r.cli.Create(p, r.srv.RootFH(), "f", 0644)
		if err != nil || cres.Status != nfsproto.OK {
			t.Errorf("create: %v %v", err, cres)
			return
		}
		if _, err := r.cli.WriteFile(p, cres.File, 16*nfsproto.MaxData); err != nil {
			t.Errorf("WriteFile: %v", err)
		}
	})
	r.sim.Run(0)
	if err := r.srv.CheckWriteLedger(); err != nil {
		t.Fatalf("ledger fired on balanced books: %v", err)
	}
	made := r.srv.madePC
	r.srv.getPC()
	err := r.srv.CheckWriteLedger()
	if err == nil {
		t.Fatal("ledger silent with a parse record held back")
	}
	want := fmt.Sprintf("server owes 0 replies, holds 0 transport handles, has 1 of %d parse records out of its pool", made)
	if err.Error() != want {
		t.Errorf("ledger said %q, want %q", err, want)
	}
}
