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

// cpuBuckets are the cpu.<bucket> shares the traced run reports. Samples
// in any other dafsio/internal package count as "other".
var cpuBuckets = []string{
	"sim", "fabric", "via", "wire", "dafs", "nfs", "kstack", "storage", "layout",
	"aggregate", "mpi", "mpiio", "cluster", "metrics", "trace", "gc", "other",
}

const internalPrefix = "dafsio/internal/"

// bucketOf attributes one stack, given leaf first, to the innermost
// dafsio/internal package on it. Runtime frames above it (memmove, GC
// assist, park) are thereby charged to their nearest dafsio caller. A
// frame of the benchmark itself (package main) reached first means the
// benchmark, not the program, did the work: "other". A stack with no
// dafsio frame is background GC when a GC worker is on it, else "other".
func bucketOf(stack []string) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			for _, b := range cpuBuckets {
				if b == rest {
					return b
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if isGCFrame(fn) {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC", "runtime.markroot", "runtime.scanobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile adds each bucket's sampled CPU nanoseconds from a gzipped
// pprof CPU profile into ns.
func foldProfile(ns map[string]float64, gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		ns[bucketOf(s.stack)] += float64(s.value)
	}
	return nil
}

// shares turns per-bucket CPU time into shares of the total, with every
// bucket present.
func shares(ns map[string]float64) map[string]float64 {
	var total float64
	for _, v := range ns {
		total += v
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = ns[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}

// profile is the part of a pprof profile the fold needs: every sample's
// stack of function names (leaf first, inlined frames expanded) and its
// last value, which for a CPU profile is nanoseconds.
type profile struct {
	samples []sample
}

type sample struct {
	stack []string
	value int64
}

// parseProfile decodes the protobuf encoding of profile.proto, keeping
// only samples, locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n >= 0 && n < int64(len(strs)) {
					stack = append(stack, strs[n])
				}
			}
		}
		p.samples = append(p.samples, sample{stack: stack, value: s.values[len(s.values)-1]})
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b. Fixed-width fields are
// skipped; profile.proto uses none that the fold needs.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n == 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n == 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := uvarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a varint; n is 0 on a truncated or overlong one.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	return v, max(n, 0)
}
