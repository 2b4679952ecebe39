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

// cpuCounts are a CPU profile's samples: per layer, each sample counted
// once (see layerOf), and the samples with an analyzer frame anywhere on
// the stack, which include the index, geometry and bvh work the analyzers
// call.
type cpuCounts struct {
	layer    map[string]int64
	analyzer int64
}

// analyzerPkgs are the packages of the visibility algorithms.
var analyzerPkgs = []string{"visibility/internal/raycast.", "visibility/internal/warnock.", "visibility/internal/paint."}

func (c *cpuCounts) add(o cpuCounts) {
	if c.layer == nil {
		c.layer = map[string]int64{}
	}
	for n, v := range o.layer {
		c.layer[n] += v
	}
	c.analyzer += o.analyzer
}

// report sets the cpu_frac metrics: each layer's share of the program's
// samples, those not attributed to the benchmark's own code.
func (c cpuCounts) report(out *outcome) {
	var total int64
	for n, v := range c.layer {
		if n != benchLayer {
			total += v
		}
	}
	for _, layer := range []string{"index", "geometry", "bvh", "gc"} {
		out.set(layer+".cpu_frac", "ratio", ratio(float64(c.layer[layer]), float64(total)))
	}
	out.set("analyzer.cpu_frac", "ratio", ratio(float64(c.analyzer), float64(total)))
	out.notes["cpu_samples"] = total
	out.notes["cpu_by_layer"] = c.layer
}

// benchLayer is the layer of samples in the benchmark's own code: its
// load generator, timing decorators and digest.
const benchLayer = "perfbench"

// cpuByLayer reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and counts its samples per layer. A sample belongs to
// "gc" when any frame is a garbage-collector function; otherwise to the
// innermost frame that is either the benchmark's (benchLayer) or in a
// repository package ("index" for visibility/internal/index,
// "visibility" for the root package), so a layer's count includes the
// runtime and library calls it makes; samples with neither count as
// "other".
func cpuByLayer(gz []byte) (cpuCounts, error) {
	out := cpuCounts{layer: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return out, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return out, fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcNames[fn]])
			}
		}
		if len(s.values) == 0 {
			continue
		}
		layer := layerOf(frames)
		out.layer[layer] += s.values[0]
		if layer != benchLayer && hasAnalyzerFrame(frames) {
			out.analyzer += s.values[0]
		}
	}
	return out, nil
}

func hasAnalyzerFrame(frames []string) bool {
	for _, f := range frames {
		for _, pkg := range analyzerPkgs {
			if strings.HasPrefix(f, pkg) {
				return true
			}
		}
	}
	return false
}

// layerOf attributes one stack, innermost frame first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return benchLayer
		}
		if rest, ok := strings.CutPrefix(f, "visibility/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			// Nested packages (obs/recorder) report their top directory.
			pkg, _, _ = strings.Cut(pkg, "/")
			return pkg
		}
		if strings.HasPrefix(f, "visibility.") {
			return "visibility"
		}
	}
	return "other"
}

// profile is the part of profile.proto the layer attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs   []uint64 // innermost first
	values []int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4
	lineFn  = 1

	fnID   = 1
	fnName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return varints(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFn {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case fnID:
					id = v
				case fnName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// fields as v and length-delimited fields as msg. Fixed-width fields are
// skipped.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (msg non-nil) or not.
func varints(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
