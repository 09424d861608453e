package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes host time from a CPU profile, not from host
// spans: a span around a blocking simulator call would contain every
// other simulated process that ran meanwhile. The module may import
// nothing outside the standard library, so the pprof protobuf is decoded
// here — only the five message fields the attribution needs.

// sharePackages are the layers share.<pkg> is reported for.
var sharePackages = []string{
	"sim", "netsim", "xdr", "oncrpc", "nfsproto", "client", "server", "core",
	"ufs", "vfs", "disk", "nvram", "block", "cluster", "rig", "scenario",
	"workload", "openload", "stats", "fault", "obs",
}

const repoPrefix = "repro/internal/"

// runtimeCuts is the overlapping cross-cut: a sample counts toward a cut
// when any frame on its stack matches, irrespective of which package
// asked for the work. memmove alone is matched at the leaf.
var runtimeCuts = []struct {
	metric   string
	leafOnly bool
	prefixes []string
}{
	{"rt.gc_pct", false, []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.scanobject", "runtime.markroot",
		"runtime.wbBufFlush", "runtime.(*mheap).reclaim",
	}},
	{"rt.alloc_pct", false, []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makechan", "runtime.makemap", "runtime.newarray",
	}},
	{"rt.sched_pct", false, []string{
		"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.chansend", "runtime.chanrecv", "runtime.mcall", "runtime.goexit0", "runtime.futex",
		"runtime.findRunnable", "runtime.wakep", "runtime.newproc",
	}},
	{"rt.memmove_pct", true, []string{"runtime.memmove"}},
	{"rt.stack_pct", false, []string{
		"runtime.newstack", "runtime.copystack", "runtime.morestack", "runtime.stackalloc",
		"runtime.stackfree", "runtime.malg", "runtime.shrinkstack",
	}},
}

// attribute parses a CPU profile and adds share.*, rt.* and prof.samples
// to m. Runtime work is charged to the package that asked for it: a
// sample belongs to the innermost repro/internal/<pkg> frame on its stack.
func attribute(gz []byte, m map[string]float64) error {
	samples, err := parseProfile(gz)
	if err != nil {
		return err
	}
	owned := map[string]int64{}
	cuts := make([]int64, len(runtimeCuts))
	var total int64
	for _, s := range samples {
		total += s.count
		owner := "rt_background"
		for _, fn := range s.stack { // leaf first
			if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
				owner, _, _ = strings.Cut(rest, ".")
				break
			}
			if strings.HasPrefix(fn, "main.") {
				owner = "other" // the benchmark's own frames, no layer below them
				break
			}
		}
		owned[owner] += s.count
		for i, cut := range runtimeCuts {
			stack := s.stack
			if cut.leafOnly && len(stack) > 1 {
				stack = stack[:1]
			}
			if stackMatches(stack, cut.prefixes) {
				cuts[i] += s.count
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("profile: no samples")
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(total) }
	rest := total
	for _, pkg := range sharePackages {
		m["share."+pkg] = pct(owned[pkg])
		rest -= owned[pkg]
	}
	m["share.rt_background"] = pct(owned["rt_background"])
	m["share.other"] = pct(rest - owned["rt_background"])
	for i, cut := range runtimeCuts {
		m[cut.metric] = pct(cuts[i])
	}
	m["prof.samples"] = float64(total)
	return nil
}

func stackMatches(stack, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// profSample is one stack, leaf first, with its sample count.
type profSample struct {
	stack []string
	count int64
}

// parseProfile decodes a gzipped pprof Profile message: samples (field 2),
// locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var rawSamples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost inline first
	funcName := map[uint64]uint64{}   // function id -> string table index
	var strs []string

	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id=1, value=2 (both repeated, usually packed)
			var s rawSample
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4: // Location: id=1, line=4 {function_id=1}
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: id=1, name=2
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := profSample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message. Varint fields arrive in v,
// length-delimited ones in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return fmt.Errorf("profile: truncated field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n == 0 {
				return fmt.Errorf("profile: truncated varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: truncated bytes field")
			}
			if err := fn(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return fmt.Errorf("profile: truncated fixed field")
			}
			msg = msg[w:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: the packed
// bytes when b is set, else the single value v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
