package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the modules of the program the CPU profile is split across.
var layers = []string{
	"sim", "hv", "evtchn", "grant", "ring", "xenstore", "builder", "toolstack", "mm",
	"netdrv", "blkdrv", "hw", "cluster", "snapshot", "telemetry", "audit", "guest", "workload",
}

// Buckets beyond the layers: garbage collection, the benchmark's own code,
// and everything else (other internal packages, runtime work that is neither
// GC nor goroutine handoff).
const (
	bucketGC    = "runtime.gc"
	bucketBench = "bench"
	bucketOther = "other"
)

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// handoff names the runtime functions a goroutine passes through when the
// simulator hands control from one process to the next: parking, readying,
// channel send/receive and the scheduler loop. A stack made of runtime
// frames only and containing one of these is dispatch cost, charged to sim.
var handoff = map[string]bool{
	"runtime.park_m": true, "runtime.schedule": true, "runtime.findRunnable": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
	"runtime.mcall": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.notesleep": true, "runtime.notewakeup": true,
	"runtime.mPark": true, "runtime.goexit0": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.exitsyscall": true,
}

// isGC reports whether fn is garbage-collector work: background mark
// workers, mark assists, sweeping and scavenging.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.GC" ||
		strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") ||
		fn == "runtime.sweepone" || fn == "runtime.markroot"
}

// attribute assigns one sample's stack, innermost frame first, to a bucket.
// GC anywhere on the stack wins, so mark assists count as GC rather than
// as the layer that allocated. Otherwise the innermost frame that belongs
// to a layer (xoar/internal/<layer>) or to the benchmark decides; frames of
// other internal packages are passed over. A stack with neither is sim when
// it is goroutine handoff, and other when it is not.
func attribute(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return bucketGC
		}
	}
	internal := false
	for _, fn := range stack {
		// The benchmark's frames read main.* in its binary and
		// xoar/perfbench.* in its test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "xoar/perfbench.") {
			return bucketBench
		}
		if rest, ok := strings.CutPrefix(fn, "xoar/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if isLayer[pkg] {
				return pkg
			}
			internal = true
		}
	}
	if !internal {
		for _, fn := range stack {
			if handoff[fn] {
				return "sim"
			}
		}
	}
	return bucketOther
}

// sample is one stack of a CPU profile, innermost frame first, with its
// CPU time in nanoseconds.
type sample struct {
	stack []string
	ns    int64
}

// shares turns samples into each bucket's fraction of the profiled CPU time.
// Every layer and bucket is present, at 0 when no sample landed there.
func shares(samples []sample) map[string]float64 {
	out := map[string]float64{bucketGC: 0, bucketBench: 0, bucketOther: 0}
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[attribute(s.stack)] += float64(s.ns) / float64(total)
	}
	return out
}

// --- pprof decoding -----------------------------------------------------------------
//
// A CPU profile from runtime/pprof is a gzipped profile.proto message. Only
// the fields attribution needs are read: samples (location ids, values),
// locations (id, lines), functions (id, name) and the string table.

// decodeProfile returns the samples of a profile, each with its stack
// resolved to function names and its last value (CPU nanoseconds).
func decodeProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := forFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					for _, u := range appendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, sample{stack: stack, ns: s.values[len(s.values)-1]})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// forFields walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in b.
func forFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
