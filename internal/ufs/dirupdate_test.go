package ufs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// refEnt and refEncodeDir are the reference the incremental update is held
// to: the whole directory encoded front to back, the way every mutation
// used to rebuild it.
type refEnt struct {
	ino  vfs.Ino
	name string
}

func refEncodeDir(ents []refEnt) []byte {
	raw := binary.BigEndian.AppendUint32(nil, uint32(len(ents)))
	for _, e := range ents {
		raw = binary.BigEndian.AppendUint64(raw, uint64(e.ino))
		raw = binary.BigEndian.AppendUint16(raw, uint16(len(e.name)))
		raw = append(raw, e.name...)
	}
	return raw
}

// refDir is the model of one directory the script keeps beside the
// filesystem: whole-slice edits, no shortcuts.
type refDir struct {
	ino  vfs.Ino
	ents []refEnt
}

func (d *refDir) index(name string) int {
	for i, e := range d.ents {
		if e.name == name {
			return i
		}
	}
	return -1
}

func (d *refDir) remove(i int) refEnt {
	e := d.ents[i]
	d.ents = append(append([]refEnt(nil), d.ents[:i]...), d.ents[i+1:]...)
	return e
}

// platterBytes reads every block of the directory straight off the
// platters, stale bytes past the directory's size included.
func platterBytes(p *sim.Proc, fs *FS, dev *disk.Disk, ino vfs.Ino) []byte {
	in := fs.inodes[ino]
	var out []byte
	for fb := int64(0); fb*BlockSize < int64(in.size); fb++ {
		phys, _, err := fs.bmap(p, in, fb, false)
		if err != nil || phys == 0 {
			panic(fmt.Sprintf("directory %d: block %d unmapped (%v)", ino, fb, err))
		}
		out = append(out, dev.PeekBlock(phys)...)
	}
	return out
}

// checkIndex holds a directory's name index to its memo: while the memo is
// valid, the index names exactly its entries, each with its inode number;
// while it is dropped, so is the index. It reports whether the memo was
// valid.
func checkIndex(t *testing.T, fs *FS, dir vfs.Ino, when string) bool {
	t.Helper()
	in := fs.inodes[dir]
	if !in.dentsOK {
		if in.dents != nil || in.names != nil {
			t.Errorf("%s: directory %d: memo dropped but %d entries and an index of %d kept", when, dir, len(in.dents), len(in.names))
		}
		return false
	}
	if len(in.names) != len(in.dents) {
		t.Errorf("%s: directory %d: index of %d names for %d entries", when, dir, len(in.names), len(in.dents))
	}
	for _, e := range in.dents {
		if ino, ok := in.names[e.name]; !ok || ino != e.ino {
			t.Errorf("%s: directory %d: index has %q -> %d (%v), entry says %d", when, dir, e.name, ino, ok, e.ino)
		}
	}
	return true
}

func listDir(t *testing.T, p *sim.Proc, fs *FS, ino vfs.Ino) []refEnt {
	t.Helper()
	var out []refEnt
	cookie := uint32(0)
	for {
		ents, eof, err := fs.Readdir(p, ino, cookie, 4096, nil)
		if err != nil {
			t.Errorf("Readdir %d: %v", ino, err)
			return out
		}
		for _, e := range ents {
			out = append(out, refEnt{ino: e.Ino, name: e.Name})
			cookie = e.Cookie
		}
		if eof {
			return out
		}
	}
}

// TestDirectoryUpdatesMatchWholeRewrite drives a scripted mix of create,
// mkdir, remove (first, middle, last) and rename (same directory, across
// directories, replacing) over directories of 1, 64 and 3,000 entries and
// holds the result to the whole-directory reference: the bytes on the
// platters, the device transactions, the events fired and the end clock
// are the values the parent commit's clone-and-rewrite produced, and a
// Mount of the same device parses the same entries. After every step both
// directories' memos are valid — edited, not reparsed — and their name
// indexes agree with them.
func TestDirectoryUpdatesMatchWholeRewrite(t *testing.T) {
	pins := map[int]struct {
		platters               string // sha256 of both directories' blocks
		dataWrites, metaWrites uint64
		events                 uint64
		end                    sim.Time
	}{
		1:    {"85ab233e6abbd69f", 20, 36, 59, 780507},
		64:   {"3c4e1749d09049d4", 83, 162, 250, 3105370},
		3000: {"2f70c9b8d5dc47a4", 3019, 6034, 9149, 167615968},
	}
	for _, n := range []int{1, 64, 3000} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := sim.New(1)
			defer s.Close()
			dev := disk.New(s, hw.RZ26(), nil)
			fs, err := Format(s, dev, 1, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			var work, other refDir
			var platters []byte
			step := 0
			indexed := func() {
				step++
				for _, d := range []*refDir{&work, &other} {
					// A directory nothing was put in yet was never loaded.
					if d.ino != 0 && !checkIndex(t, fs, d.ino, fmt.Sprintf("step %d", step)) && len(d.ents) > 0 {
						t.Errorf("step %d: directory %d: memo dropped by a warm update", step, d.ino)
					}
				}
			}
			run(s, func(p *sim.Proc) {
				must := func(err error) {
					if err != nil {
						panic(fmt.Sprintf("script: %v", err)) // re-raised by Run on the test goroutine
					}
					indexed()
				}
				add := func(d *refDir, name string, dir bool) {
					var ino vfs.Ino
					var err error
					if dir {
						ino, err = fs.Mkdir(p, d.ino, name, 0755)
					} else {
						ino, err = fs.Create(p, d.ino, name, 0644)
					}
					must(err)
					d.ents = append(d.ents, refEnt{ino: ino, name: name})
				}
				unlink := func(d *refDir, i int) {
					e := d.remove(i)
					if fs.inodes[e.ino].ftype == vfs.TypeDir {
						must(fs.Rmdir(p, d.ino, e.name))
					} else {
						must(fs.Remove(p, d.ino, e.name))
					}
				}
				must(fs.WriteSuper(p))
				var err error
				work.ino, err = fs.Mkdir(p, fs.Root(), "work", 0755)
				must(err)
				other.ino, err = fs.Mkdir(p, fs.Root(), "other", 0755)
				must(err)
				for i := 0; i < n; i++ {
					add(&work, fmt.Sprintf("entry-%04d", i), i%7 == 3)
				}
				add(&work, "new-a", false)
				add(&work, "new-b", true)
				add(&work, "new-c", false)
				add(&work, "new-d", false)
				add(&work, "new-e", false)
				unlink(&work, 0)
				unlink(&work, len(work.ents)/2)
				unlink(&work, len(work.ents)-1)

				// Same directory, new name.
				mid := len(work.ents) / 2
				must(fs.Rename(p, work.ino, work.ents[mid].name, work.ino, "renamed"))
				work.ents[mid].name = "renamed"

				// Same directory, replacing a regular file further along.
				add(&work, "victim", false)
				add(&work, "bystander", false)
				from := work.ents[0].name
				must(fs.Rename(p, work.ino, from, work.ino, "victim"))
				work.remove(work.index("victim"))
				work.ents[work.index(from)].name = "victim"

				// Across directories.
				from = work.ents[len(work.ents)/3].name
				must(fs.Rename(p, work.ino, from, other.ino, "moved"))
				e := work.remove(work.index(from))
				other.ents = append(other.ents, refEnt{ino: e.ino, name: "moved"})

				// Across directories, replacing a regular file there.
				add(&other, "target", false)
				from = work.ents[len(work.ents)-1].name
				must(fs.Rename(p, work.ino, from, other.ino, "target"))
				e = work.remove(work.index(from))
				other.remove(other.index("target"))
				other.ents = append(other.ents, refEnt{ino: e.ino, name: "target"})

				for _, d := range []*refDir{&work, &other} {
					want := refEncodeDir(d.ents)
					got := platterBytes(p, fs, dev, d.ino)
					if len(got) < len(want) || string(got[:len(want)]) != string(want) {
						t.Errorf("directory %d: platter bytes differ from the whole-directory encoding", d.ino)
					}
					if sz := fs.inodes[d.ino].size; int(sz) != len(want) {
						t.Errorf("directory %d: size %d, reference %d", d.ino, sz, len(want))
					}
					if got := listDir(t, p, fs, d.ino); !slices.Equal(got, d.ents) {
						t.Errorf("directory %d: Readdir differs from the model", d.ino)
					}
					platters = append(platters, got...)
				}
			})
			sum := sha256.Sum256(platters)
			got := hex.EncodeToString(sum[:8])
			pin := pins[n]
			if got != pin.platters || fs.DataWrites != pin.dataWrites || fs.MetaWrites != pin.metaWrites ||
				s.EventsFired() != pin.events || s.Now() != pin.end {
				t.Errorf("n=%d: {%q, %d, %d, %d, %d}, pinned from the parent commit {%q, %d, %d, %d, %d}",
					n, got, fs.DataWrites, fs.MetaWrites, s.EventsFired(), s.Now(),
					pin.platters, pin.dataWrites, pin.metaWrites, pin.events, pin.end)
			}

			// The disk's arm belongs to s, so the remount runs there too.
			run(s, func(p *sim.Proc) {
				m, err := Mount(s, p, dev, nil)
				if err != nil {
					t.Errorf("Mount: %v", err)
					return
				}
				for _, d := range []*refDir{&work, &other} {
					if got := listDir(t, p, m, d.ino); !slices.Equal(got, d.ents) {
						t.Errorf("directory %d: a fresh Mount parses different entries", d.ino)
					}
					if !checkIndex(t, m, d.ino, "after Mount") {
						t.Errorf("directory %d: Readdir after Mount left no memo", d.ino)
					}
				}
			})
		})
	}
}

// TestConcurrentCreatorsLoseNoEntry has 32 processes create in one
// directory at once. The buffer cache is unbounded — a live directory's
// blocks are never evicted — so the only way to have creators overlap
// device reads of directory blocks is a cold cache: the second half runs
// on a fresh Mount, where the first loads of the multi-block directory are
// in flight together. Every name must be found afterwards, before and
// after another remount, and the directory's name index must agree with
// its memo after every create and every check.
func TestConcurrentCreatorsLoseNoEntry(t *testing.T) {
	const procs, each, seeded = 32, 8, 400 // 400 entries: two blocks before the storm
	s := sim.New(1)
	defer s.Close()
	dev := disk.New(s, hw.RZ26(), nil)
	fs, err := Format(s, dev, 1, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dir vfs.Ino
	run(s, func(p *sim.Proc) {
		fs.WriteSuper(p)
		dir, err = fs.Mkdir(p, fs.Root(), "shared", 0755)
		if err != nil {
			panic(fmt.Sprintf("Mkdir: %v", err))
		}
		for i := 0; i < seeded; i++ {
			if _, err := fs.Create(p, dir, fmt.Sprintf("seed-%03d", i), 0644); err != nil {
				panic(fmt.Sprintf("Create: %v", err))
			}
		}
	})
	storm := func(fs *FS, round string) {
		for id := 0; id < procs; id++ {
			id := id
			s.Spawn(fmt.Sprintf("creator%d", id), func(p *sim.Proc) {
				for j := 0; j < each; j++ {
					if _, err := fs.Create(p, dir, fmt.Sprintf("%s-%02d-%d", round, id, j), 0644); err != nil {
						t.Errorf("Create %s-%02d-%d: %v", round, id, j, err)
					}
					checkIndex(t, fs, dir, fmt.Sprintf("%s storm, creator %d", round, id))
				}
			})
		}
		s.Run(0)
	}
	check := func(fs *FS, when string, rounds ...string) {
		run(s, func(p *sim.Proc) {
			names := make(map[string]bool)
			for _, e := range listDir(t, p, fs, dir) {
				if names[e.name] {
					t.Errorf("%s: %q listed twice", when, e.name)
				}
				names[e.name] = true
			}
			if want := seeded + len(rounds)*procs*each; len(names) != want {
				t.Errorf("%s: %d entries, want %d", when, len(names), want)
			}
			if !checkIndex(t, fs, dir, when) {
				t.Errorf("%s: Readdir left no memo", when)
			}
			for _, round := range rounds {
				for id := 0; id < procs; id++ {
					for j := 0; j < each; j++ {
						name := fmt.Sprintf("%s-%02d-%d", round, id, j)
						if _, err := fs.Lookup(p, dir, name); err != nil {
							t.Errorf("%s: Lookup %s: %v", when, name, err)
						}
					}
				}
			}
		})
	}
	// The disk's arm belongs to s, so every boot runs on that one sim.
	remount := func() *FS {
		var m *FS
		run(s, func(p *sim.Proc) {
			var err error
			if m, err = Mount(s, p, dev, nil); err != nil {
				panic(fmt.Sprintf("Mount: %v", err))
			}
		})
		return m
	}

	storm(fs, "warm")
	check(fs, "warm cache", "warm")

	fs = remount()
	storm(fs, "cold") // nothing loaded yet: 32 first parses overlap their device reads
	check(fs, "cold cache", "warm", "cold")

	check(remount(), "after remount", "warm", "cold")
}

// TestCreateAllocationIndependentOfDirectorySize is a host-work guard that
// does not read the clock: a Create into a 4,096-entry directory may
// allocate at most four times the bytes of one into a 16-entry directory.
// Rebuilding or copying the directory per create would be hundreds of times.
func TestCreateAllocationIndependentOfDirectorySize(t *testing.T) {
	perCreate := func(entries int) uint64 {
		s := sim.New(1)
		defer s.Close()
		fs, err := Format(s, disk.New(s, hw.RZ26(), nil), 1, 2*4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 64
		names := make([]string, rounds+8)
		for i := range names {
			names[i] = fmt.Sprintf("new%d", i)
		}
		var total uint64
		run(s, func(p *sim.Proc) {
			for i := 0; i < entries; i++ {
				if _, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%d", i), 0644); err != nil {
					panic(fmt.Sprintf("Create: %v", err))
				}
			}
			var before, after runtime.MemStats
			for i, name := range names {
				// The first eight rounds warm the pools and let the entry
				// slice take its amortized growth step.
				runtime.ReadMemStats(&before)
				if _, err := fs.Create(p, fs.Root(), name, 0644); err != nil {
					panic(fmt.Sprintf("Create: %v", err))
				}
				runtime.ReadMemStats(&after)
				if i >= len(names)-rounds {
					total += after.TotalAlloc - before.TotalAlloc
				}
				if err := fs.Remove(p, fs.Root(), name); err != nil {
					panic(fmt.Sprintf("Remove: %v", err))
				}
			}
		})
		return total / rounds
	}
	small, large := perCreate(16), perCreate(4096)
	t.Logf("bytes allocated per Create: %d into 16 entries, %d into 4096", small, large)
	if large > 4*small {
		t.Errorf("Create into 4096 entries allocates %d bytes, more than 4x the %d into 16", large, small)
	}
}
