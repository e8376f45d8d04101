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

// The traced run CPU-profiles itself with runtime/pprof and attributes every
// sample to one simulator module. The profile is a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto); only the standard library
// is available, so this file decodes the few fields attribution needs.

// modules are the layers self time is reported for, in report order.
var modules = []string{
	"sim", "cpu", "cache", "interconnect", "bwctrl", "mba", "dram", "rrbp",
	"manager", "machine", "loadgen", "exp", "runtime_gc", "other",
}

// pkgModule maps a repository package (the element after pivot/internal/)
// to its module. Packages not listed (mem, ring, profile, cbp, metrics, ...)
// are helpers: their samples go to the nearest caller in a listed module.
var pkgModule = map[string]string{
	"sim": "sim", "cpu": "cpu", "cache": "cache", "interconnect": "interconnect",
	"bwctrl": "bwctrl", "mba": "mba", "dram": "dram", "rrbp": "rrbp",
	"manager": "manager", "machine": "machine", "exp": "exp",
	"loadgen": "loadgen", "load": "loadgen", "workload": "loadgen",
}

// gcFramePrefixes mark a stack as garbage-collector or allocator work: the
// background mark workers, sweeper and scavenger, mark assists, write
// barriers, and every allocation (mallocgc and its size-class variants).
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBuf",
}

// funcPackage returns the import path of a symbol as the Go runtime names
// it: "pkg/path.Func", "pkg/path.(*T).M", "pkg/path.T[go.shape.*a/b.C].M"
// or "pkg/path.Func.func1". Type arguments may themselves contain slashes
// and dots, so the name is cut at the first '(' or '[' before searching.
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// frameModule maps one function name to its module, or "" for helpers,
// the runtime and the standard library.
func frameModule(name string) string {
	pkg, ok := strings.CutPrefix(funcPackage(name), "pivot/internal/")
	if !ok {
		return ""
	}
	return pkgModule[pkg]
}

// stackModule attributes one sample, given its frames from leaf to root.
func stackModule(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "runtime_gc"
			}
		}
	}
	for _, f := range frames {
		if m := frameModule(f); m != "" {
			return m
		}
	}
	return "other"
}

// selfTime is CPU time per module in seconds.
type selfTime map[string]float64

// attributeProfile decodes a gzipped CPU profile and sums each sample's
// CPU time into the module stackModule assigns it.
func attributeProfile(gz []byte) (selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := selfTime{}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		out[stackModule(frames)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost inline first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

// decodeProfile reads the Profile message: sample (2), location (4),
// function (5) and string_table (6). A CPU profile's last sample value is
// CPU nanoseconds.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendPacked(s.locs, v, d)
				case 2:
					vals, err = appendPacked(vals, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("pprof: function name outside string table")
		}
	}
	for _, fns := range p.locFuncs {
		for _, f := range fns {
			if _, ok := p.funcName[f]; !ok {
				return nil, fmt.Errorf("pprof: location refers to unknown function %d", f)
			}
		}
	}
	for _, s := range p.samples {
		for _, l := range s.locs {
			if _, ok := p.locFuncs[l]; !ok {
				return nil, fmt.Errorf("pprof: sample refers to unknown location %d", l)
			}
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling f with each field number and
// either its varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("pprof: truncated fixed field")
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: truncated length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wt)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either packed
// (data != nil) or as a single value.
func appendPacked(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errors.New("pprof: bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
