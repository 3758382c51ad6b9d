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

// cpuBuckets are the layers a CPU profile is folded into: the repository's
// packages, the runtime split into collector and scheduler, the kernel
// boundary, and everything else.
var cpuBuckets = []string{
	"emunet", "topology", "msg", "ids", "gossip", "lazy", "strategy", "membership",
	"core", "trace", "obs", "neem", "runtime_gc", "runtime_sched", "syscall", "other",
}

// foldProfile reads a runtime/pprof CPU profile and returns each bucket's
// share of the samples. A sample belongs to the first frame, walking from
// the leaf towards the root, that names a bucket: so time in memmove or
// mallocgc called from msg.Encode is msg's, while a stack rooted in the
// collector or the scheduler never reaches a package frame and is the
// runtime's.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	bucketOf := make(map[uint64]string, len(p.functions)) // function id -> bucket, "" = keep walking
	for id, nameIdx := range p.functions {
		if nameIdx >= uint64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		bucketOf[id] = classify(p.strings[nameIdx])
	}
	counts := make(map[string]float64, len(cpuBuckets))
	total := 0.0
	for _, s := range p.samples {
		bucket := "other"
	walk:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if b := bucketOf[fn]; b != "" {
					bucket = b
					break walk
				}
			}
		}
		counts[bucket] += float64(s.value)
		total += float64(s.value)
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = ratio(counts[b], total)
	}
	return shares, nil
}

// classify maps a function name to its bucket, or "" for helpers (runtime
// allocation, copying and map access, the standard library) whose cost
// belongs to their caller.
func classify(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "emcast/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other" // sim, scenario, stats, ...: glue above the layers
	}
	if strings.HasPrefix(fn, "emcast.") || strings.HasPrefix(fn, "main.") {
		return "other" // the public wrapper and the benchmark itself
	}
	for bucket, prefixes := range runtimeBuckets {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return bucket
			}
		}
	}
	return ""
}

// runtimeBuckets lists the function-name prefixes that end the walk outside
// the repository's packages.
var runtimeBuckets = map[string][]string{
	"syscall": {
		"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "internal/poll.",
	},
	"runtime_gc": {
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssist", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.(*gcWork)", "runtime.scanobject",
		"runtime.greyobject", "runtime.markroot", "runtime.wbBufFlush", "runtime.bgsweep",
		"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.bgscavenge",
	},
	"runtime_sched": {
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.notesleep", "runtime.notewakeup", "runtime.futex", "runtime.usleep", "runtime.osyield",
		"runtime.netpoll", "runtime.epoll", "runtime.runqgrab", "runtime.stealWork", "runtime.execute",
		"runtime.gosched", "runtime.goexit", "runtime.mstart", "runtime.checkTimers", "runtime.(*timers)",
		"runtime.(*timer)", "runtime.lock", "runtime.unlock", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.sigtramp", "sync.", "internal/sync.",
	},
}

// profileData is the part of a pprof profile the fold needs.
type profileData struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]uint64   // function id -> index of its name
	strings   []string
}

type profileSample struct {
	locations []uint64 // leaf first
	value     int64    // the last value of the sample: CPU nanoseconds
}

// Field numbers of perftools.profiles.Profile and its messages
// (github.com/google/pprof/proto/profile.proto).
const (
	profSample, profLocation, profFunction, profStringTable = 2, 4, 5, 6
	sampleLocationID, sampleValue                           = 1, 2
	locationID, locationLine                                = 1, 4
	lineFunctionID                                          = 1
	functionID, functionName                                = 1, 2
)

var errProto = errors.New("malformed profile")

func parseProfile(b []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, body []byte) error {
		switch num {
		case profSample:
			var s profileSample
			err := eachField(body, func(num int, v uint64, body []byte) error {
				switch num {
				case sampleLocationID:
					return eachPacked(v, body, func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return eachPacked(v, body, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(body, func(num int, v uint64, body []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(body, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
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
			p.locations[id] = fns
		case profFunction:
			var id, name uint64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v, length-delimited ones in body; fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errProto
			}
			b = b[width:]
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < size {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(size)]); err != nil {
				return err
			}
			b = b[n+int(size):]
		default:
			return errProto
		}
	}
	return nil
}

// eachPacked yields a repeated integer field, packed (body) or not (v).
func eachPacked(v uint64, body []byte, fn func(uint64)) error {
	if body == nil {
		fn(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errProto
		}
		fn(x)
		body = body[n:]
	}
	return nil
}
