package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer flat CPU
// shares. It decodes the few fields of the profile.proto message it
// needs by hand, so the benchmark depends on nothing outside the
// standard library and runs no external tool.

// internalLayers are the tsnoop packages with a CPU share of their own;
// protocol covers both protocol packages.
var internalLayers = []string{
	"sim", "tsnet", "network", "topology", "protocol", "cache", "coherence",
	"processor", "system", "workload", "spec", "stats", "service", "cluster",
}

// cpuLayers are the layers a CPU sample is attributed to, by the package
// of the function it was taken in. The shares of all of them sum to 100.
var cpuLayers = append(slices.Clone(internalLayers),
	"net_http", "encoding_json", "crypto", "syscall",
	"runtime_gc", "runtime_map", "runtime_sched", "runtime_other", "other")

// cpuShares reads a gzipped CPU profile and returns each cpuLayers
// entry's share of the sampled CPU time, in percent.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	flat, err := flatByFunction(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for fn, v := range flat {
		shares[layerOf(fn)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: no CPU samples", path)
	}
	for l := range shares {
		shares[l] = 100 * shares[l] / total
	}
	return shares, nil
}

// layerOf maps a fully qualified function name to its cpuLayers entry.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "tsnoop/internal/protocol/"):
		return "protocol"
	case strings.HasPrefix(pkg, "tsnoop/internal/"):
		if name := strings.TrimPrefix(pkg, "tsnoop/internal/"); slices.Contains(internalLayers, name) {
			return name
		}
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "internal/runtime/maps":
		return "runtime_map"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return runtimeLayer(strings.TrimPrefix(fn, pkg+"."))
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	}
	return "other"
}

// runtimeLayer splits the Go runtime's own functions into map access,
// memory management (allocation and GC), and scheduling.
func runtimeLayer(fn string) string {
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
		return false
	}
	switch {
	case has("map", "hash"):
		return "runtime_map"
	case has("gc", "GC", "scan", "mark", "sweep", "malloc", "mspan", "mheap", "mcache", "mcentral",
		"heapBits", "greyobject", "findObject", "Barrier", "wbBuf", "memclrNoHeapPointers",
		"nextFree", "pageAlloc", "spanOf", "typePointers", "newobject", "makeslice", "growslice"):
		return "runtime_gc"
	case has("schedule", "findRunnable", "park", "ready", "futex", "note", "stopm", "startm",
		"runq", "netpoll", "casgstatus", "chan", "select", "lock", "sleep", "yield", "wakep",
		"mcall", "goexit", "newproc", "gogo", "sema", "epoll", "timer", "steal"):
		return "runtime_sched"
	}
	return "runtime_other"
}

// leafSample is one CPU sample: its leaf location and CPU nanoseconds.
type leafSample struct {
	loc uint64
	val int64
}

// flatByFunction decodes a profile.proto message and sums each
// sample's last value (CPU nanoseconds) into the function its leaf
// frame was in. An inlined leaf counts toward the innermost function.
func flatByFunction(raw []byte) (map[string]float64, error) {
	var (
		strs    []string
		fnName  = map[uint64]int64{}  // function id -> name string index
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		samples []leafSample
	)
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, leafSample{locs[0], vals[len(vals)-1]})
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seenLine:
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if i, ok := fnName[locFn[s.loc]]; ok && i >= 0 && i < int64(len(strs)) {
			name = strs[i]
		}
		flat[name] += float64(s.val)
	}
	return flat, nil
}

// appendVarints appends a repeated varint field's values, whether the
// field was written packed (b holds the varints) or as one value (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when b
// ends first).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
