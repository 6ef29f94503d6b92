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

// modules are the simulator packages whose CPU self time the traced run
// reports (as "<module>.self_ms"). Samples whose leaf function lies
// elsewhere fold into "runtime" (the Go runtime, GC included) or "other"
// (the machine assembly, the standard library, this benchmark), so the
// folds always sum to the whole profile.
var modules = []string{"sim", "proc", "workload", "cache", "coherence", "directory", "mesh", "swdir", "ipi"}

// foldModule maps a function name from a Go CPU profile to the module it
// is charged to.
func foldModule(fn string) string {
	// Generic instantiations carry type arguments that may contain slashes.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	if rest, ok := strings.CutPrefix(fn, "limitless/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, m := range modules {
			if pkg == m {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and sums each sample's CPU time by the module of its leaf
// function. It returns nanoseconds per module.
func foldProfile(gz []byte) (map[string]int64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		mod := "other"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			// The first line of a location is the innermost inlined call.
			mod = foldModule(p.str(p.funcNames[fns[0]]))
		}
		out[mod] += s.values[p.cpu]
	}
	return out, nil
}

// decodeProfile gunzips and parses a CPU profile, dropping samples that
// carry no stack or no CPU time value.
func decodeProfile(gz []byte) (*pprofData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	p.cpu = -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			p.cpu = i
		}
	}
	if p.cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	kept := p.samples[:0]
	for _, s := range p.samples {
		if len(s.locs) > 0 && p.cpu < len(s.values) {
			kept = append(kept, s)
		}
	}
	p.samples = kept
	return p, nil
}

// pprofData is the subset of the profile.proto message the fold needs.
type pprofData struct {
	sampleTypes []int64 // string index of each value type's name
	cpu         int     // index of the cpu/nanoseconds value
	samples     []pprofSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> string index of its name
	strings     []string
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

func (p *pprofData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
)

func parseProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			if err := eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case profSample:
			var s pprofSample
			if err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			if err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			if err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field that may be encoded either
// one value per field (v) or packed into a length-delimited run (packed).
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. For varint fields fn
// receives the value and a nil slice; for length-delimited fields it
// receives the payload (non-nil, possibly empty). Fixed-width fields are
// skipped; profile.proto has none the fold needs.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
