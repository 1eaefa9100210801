package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped protocol-buffer CPU profiles
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto).
// It decodes only what layer attribution needs: samples with their
// location stacks and values, locations with their (possibly inlined)
// line entries, and functions with their source files.

// frame is one source position of a stack; a location holds several
// when calls were inlined, innermost first.
type frame struct {
	file string
	line int64
}

type profileSample struct {
	stack []uint64 // location ids, leaf first
	value int64    // CPU nanoseconds
}

type cpuProfile struct {
	samples   []profileSample
	locations map[uint64][]frame
}

// total is the CPU time of every sample, in nanoseconds.
func (p *cpuProfile) total() int64 {
	var t int64
	for _, s := range p.samples {
		t += s.value
	}
	return t
}

// pbReader walks one protocol-buffer message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (r *pbReader) varint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

// next returns the next field's number and wire type; for wire type 2
// data holds the payload, for wire type 0 v holds the value.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// appendInts decodes a repeated integer field, packed or not.
func appendInts(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type line struct{ fn, line uint64 }
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indices
		rawSamples  [][2][]uint64
		locLines    = map[uint64][]line{}
		funcFile    = map[uint64]uint64{}
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		m := pbReader{data}
		switch field {
		case 1: // sample_type
			var st [2]uint64
			for len(m.b) > 0 {
				f, _, x, _, err := m.next()
				if err != nil {
					return nil, err
				}
				if f == 1 || f == 2 {
					st[f-1] = x
				}
			}
			sampleTypes = append(sampleTypes, st)
		case 2: // sample
			var s [2][]uint64
			for len(m.b) > 0 {
				f, w, x, d, err := m.next()
				if err != nil {
					return nil, err
				}
				if f == 1 || f == 2 {
					if s[f-1], err = appendInts(s[f-1], w, x, d); err != nil {
						return nil, err
					}
				}
			}
			rawSamples = append(rawSamples, s)
		case 4: // location
			var id uint64
			var lines []line
			for len(m.b) > 0 {
				f, _, x, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = x
				case 4:
					var ln line
					lr := pbReader{d}
					for len(lr.b) > 0 {
						lf, _, lx, _, err := lr.next()
						if err != nil {
							return nil, err
						}
						switch lf {
						case 1:
							ln.fn = lx
						case 2:
							ln.line = lx
						}
					}
					lines = append(lines, ln)
				}
			}
			locLines[id] = lines
		case 5: // function
			var id, file uint64
			for len(m.b) > 0 {
				f, _, x, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = x
				case 4:
					file = x
				}
			}
			funcFile[id] = file
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, st := range sampleTypes {
		if str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("pprof: profile has no nanoseconds sample type")
	}
	p := &cpuProfile{locations: make(map[uint64][]frame, len(locLines))}
	for id, lines := range locLines {
		fr := make([]frame, len(lines))
		for i, ln := range lines {
			fr[i] = frame{file: str(funcFile[ln.fn]), line: int64(ln.line)}
		}
		p.locations[id] = fr
	}
	for _, s := range rawSamples {
		if vi >= len(s[1]) {
			return nil, fmt.Errorf("pprof: sample has %d values, want index %d", len(s[1]), vi)
		}
		p.samples = append(p.samples, profileSample{stack: s[0], value: int64(s[1][vi])})
	}
	return p, nil
}
