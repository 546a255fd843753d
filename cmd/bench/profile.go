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

// The traced run attributes CPU time to the repository's modules from the
// runtime's own CPU profiles. Only the standard library is available, so
// this file decodes the few fields of the gzipped profile.proto it needs:
// samples (location ids and values), locations (their innermost inlined
// function) and functions (their names).

// profModules are the modules self time is reported for; every other
// package's samples count towards the total only.
var profModules = []string{"isa", "cpu", "icu", "cache", "bus", "mem", "soc", "core", "fault", "serve", "runtime"}

// moduleOf maps a Go symbol to a profModules entry ("" for none).
func moduleOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if m, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, mod := range profModules {
			if m == mod {
				return m
			}
		}
	}
	return ""
}

// selfShares returns each module's share of the sampled CPU time across
// the given gzipped CPU profiles, attributing every sample to its leaf
// frame (self time). Samples in the benchmark's own package main — the
// calibration kernel — count towards no total: the shares are of the
// program's time.
func selfShares(profiles [][]byte) (map[string]float64, error) {
	byMod := map[string]int64{}
	var total int64
	for _, p := range profiles {
		self, all, err := profileSelf(p)
		if err != nil {
			return nil, err
		}
		for fn, v := range self {
			if m := moduleOf(fn); m != "" {
				byMod[m] += v
			}
		}
		total += all
	}
	out := make(map[string]float64, len(profModules))
	for _, m := range profModules {
		out[m] = ratio(float64(byMod[m]), float64(total))
	}
	return out, nil
}

// profileSelf decodes one gzipped profile into self value by function
// name, plus the total over all samples outside package main, using each
// sample's last value (CPU nanoseconds for a CPU profile).
func profileSelf(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sampleRec
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sampleRec
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids, err := varints(wire, v, b)
					if len(ids) > 0 && first {
						s.leaf, first = ids[0], false
					}
					return err
				case 2: // value
					vals, err := varints(wire, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			lineSeen := false
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: the first entry is the innermost inlined function
					if lineSeen {
						return nil
					}
					lineSeen = true
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
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
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	self := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if i := fnName[locFn[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		if strings.HasPrefix(name, "main.") {
			continue
		}
		self[name] += s.value
		total += s.value
	}
	return self, total, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
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
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
