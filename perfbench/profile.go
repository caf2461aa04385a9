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

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto). It keeps what layer attribution needs: each sample's
// CPU time, leaf function and "exp" label.

// cpuSample is one profile sample reduced to its leaf frame.
type cpuSample struct {
	ns   int64  // CPU time
	leaf string // fully qualified name of the innermost function
	exp  string // value of the "exp" label, "" when unlabelled
}

type pbLine struct{ funcID uint64 }

type pbLocation struct {
	id    uint64
	lines []pbLine
}

type pbFunction struct {
	id   uint64
	name int64
}

type pbLabel struct{ key, str int64 }

type pbSample struct {
	locs   []uint64
	values []int64
	labels []pbLabel
}

type pbValueType struct{ typ int64 }

// parseCPUProfile decodes a gzipped CPU profile into leaf samples.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		types   []pbValueType
		samples []pbSample
		locs    = map[uint64]pbLocation{}
		funcs   = map[uint64]pbFunction{}
		strs    []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			var t pbValueType
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					t.typ = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2:
			s, err := parseSample(b)
			samples = append(samples, s)
			return err
		case 4:
			l, err := parseLocation(b)
			locs[l.id] = l
			return err
		case 5:
			var fn pbFunction
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					fn.id = v
				case 2:
					fn.name = int64(v)
				}
				return nil
			})
			funcs[fn.id] = fn
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU-time value is the sample type named "cpu"; the other one
	// counts samples.
	vi := len(types) - 1
	for i, t := range types {
		if str(t.typ) == "cpu" {
			vi = i
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: s.values[vi]}
		if len(s.locs) > 0 {
			// The first location is the leaf; within it, the first line
			// is the innermost of any inlined calls.
			if l, ok := locs[s.locs[0]]; ok && len(l.lines) > 0 {
				cs.leaf = str(funcs[l.lines[0].funcID].name)
			}
		}
		for _, lb := range s.labels {
			if str(lb.key) == "exp" {
				cs.exp = str(lb.str)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

func parseSample(b []byte) (pbSample, error) {
	var s pbSample
	err := walk(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 1:
			if data != nil {
				return packed(data, func(x uint64) { s.locs = append(s.locs, x) })
			}
			s.locs = append(s.locs, v)
		case 2:
			if data != nil {
				return packed(data, func(x uint64) { s.values = append(s.values, int64(x)) })
			}
			s.values = append(s.values, int64(v))
		case 3:
			var lb pbLabel
			err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					lb.key = int64(v)
				case 2:
					lb.str = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, lb)
			return err
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (pbLocation, error) {
	var l pbLocation
	err := walk(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 1:
			l.id = v
		case 4:
			var ln pbLine
			err := walk(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					ln.funcID = v
				}
				return nil
			})
			l.lines = append(l.lines, ln)
			return err
		}
		return nil
	})
	return l, err
}

// walk calls fn for every field of a protobuf message: v holds varint
// and fixed-width values, data the payload of length-delimited fields
// (nil for the other wire types).
func walk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// packageOf returns the import path of a fully qualified function name,
// e.g. "gsdram/internal/sim" for "gsdram/internal/sim.(*EventQueue).Step".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
