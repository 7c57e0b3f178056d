package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects a CPU profile of one pass, from its first generated
// operation (start, called by the pass once set-up is over) to its return
// (samples), the same stretch host_ops_per_s covers.
type cpuProfile struct {
	buf bytes.Buffer
	err error
}

func (p *cpuProfile) start() {
	if p != nil {
		p.err = pprof.StartCPUProfile(&p.buf)
	}
}

// samples stops the profiler and returns the samples as call stacks of
// function names, leaf first, each with its sample count.
func (p *cpuProfile) samples() ([]stackSample, error) {
	if p.err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", p.err)
	}
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

type stackSample struct {
	funcs []string // leaf first
	count int64
}

// decodeProfile reads the gzipped profile.proto the runtime writes. Only the
// fields the fold needs are decoded (samples, locations, functions, the
// string table); the module takes no dependency for it.
//
//	Profile:  sample=2 location=4 function=5 string_table=6
//	Sample:   location_id=1 (packed) value=2 (packed)
//	Location: id=1 line=4 {function_id=1}
//	Function: id=1 name=2 (string index)
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			if err := eachField(b, func(num int, v uint64, p []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, p)
				case 2:
					s.vals = appendVarints(s.vals, v, p)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(p, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
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
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{count: int64(s.vals[0])} // value 0 is samples/count
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with a varint field's
// value or a length-delimited field's bytes.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("decode profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("decode profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("decode profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("decode profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("decode profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("decode profile: wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// packageBucket maps a repo package to the layer its host time is booked to.
var packageBucket = map[string]string{
	"sim":       "host.share.sim",
	"env":       "host.share.sim",
	"device":    "host.share.device_aio",
	"aio":       "host.share.device_aio",
	"fault":     "host.share.device_aio",
	"core":      "host.share.core",
	"costs":     "host.share.core",
	"btree":     "host.share.index_cache_slab",
	"pagecache": "host.share.index_cache_slab",
	"slab":      "host.share.index_cache_slab",
	"freelist":  "host.share.index_cache_slab",
	"hotcache":  "host.share.index_cache_slab",
	"mvcc":      "host.share.mvcc_txn",
	"txn":       "host.share.mvcc_txn",
	"net":       "host.share.net_cluster",
	"cluster":   "host.share.net_cluster",
	"ycsb":      "host.share.ycsb",
	"harness":   "host.share.harness_stats",
	"stats":     "host.share.harness_stats",
	"trace":     "host.share.trace",
}

// Runtime frames that mark a stack as memory management or as scheduling
// (the simulator hands control between procs over channels, so parking and
// readying goroutines is its context switch).
var (
	gcFrames = []string{
		"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcDrain", "runtime.scanobject", "runtime.sweepone",
		"runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.gcStart", "runtime.gcMarkDone",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.chansend", "runtime.chanrecv", "runtime.findRunnable", "runtime.mcall", "runtime.futex",
		"runtime.newproc", "runtime.goexit0", "runtime.sysmon", "runtime.mstart", "runtime.selectgo",
	}
)

func hasFrame(stack []string, frames []string) bool {
	for _, f := range stack {
		for _, g := range frames {
			if strings.HasPrefix(f, g) { // also chansend1, goparkunlock, futexsleep, ...
				return true
			}
		}
	}
	return false
}

// repoBucket returns the bucket of a function in this repository, or "".
// Package kv (key and value codecs, the key hash) has no bucket of its own:
// like the runtime's memmove, its time belongs to the layer that called it.
func repoBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "kvell/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		return packageBucket[pkg]
	}
	if strings.HasPrefix(fn, "main.") {
		return "host.share.harness_stats" // the benchmark's own driver code
	}
	return ""
}

// foldProfile turns CPU samples into shares that sum to 1. A sample whose
// stack allocates or collects goes to runtime_gc, one that parks or readies
// a goroutine to runtime_sched; any other is charged to the innermost frame
// that belongs to a repo package, so memmove or a map access counts for the
// layer that called it. What is left (no repo frame) is other.
func foldProfile(samples []stackSample) map[string]float64 {
	shares := map[string]float64{}
	for _, name := range hostShares {
		shares[name] = 0
	}
	var total float64
	for _, s := range samples {
		bucket := "host.share.other"
		switch {
		case hasFrame(s.funcs, gcFrames):
			bucket = "host.share.runtime_gc"
		case hasFrame(s.funcs, schedFrames):
			bucket = "host.share.runtime_sched"
		default:
			for _, fn := range s.funcs {
				if b := repoBucket(fn); b != "" {
					bucket = b
					break
				}
			}
		}
		shares[bucket] += float64(s.count)
		total += float64(s.count)
	}
	if total == 0 {
		shares["host.share.other"] = 1
		return shares
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}
