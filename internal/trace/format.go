package trace

// The on-disk format. A trace file is:
//
//	magic   8 bytes "TSTRACE1"
//	header  uvarint version (1)
//	        uvarint cpus
//	        uvarint len(name), name bytes
//	        uvarint footprint bytes
//	        uvarint warmup quota per cpu
//	        uvarint measure quota per cpu
//	chunks  repeated until EOF:
//	        uvarint cpu
//	        uvarint count (accesses in this chunk, > 0)
//	        uvarint payload length in bytes
//	        payload
//
// A chunk payload packs count accesses of one CPU's stream in order:
// each access is a zigzag-varint block delta (against the previous
// block in the chunk; the first access is a delta against block 0, so
// chunks decode independently) followed by a uvarint holding
// think<<1 | storeBit. Sequential block walks and small think times
// make both varints short: typical benchmarks encode to ~3 bytes per
// access versus 20 in memory.
//
// Encoding and decoding are chunk-parallel: the Writer batches filled
// chunks and encodes a batch across the internal/parallel pool before
// writing it out in order; Decode scans the chunk boundaries (cheap)
// and decodes all payloads across the pool. File bytes are identical
// at any worker count.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"tsnoop/internal/coherence"
	"tsnoop/internal/parallel"
	"tsnoop/internal/workload"
)

var magic = [8]byte{'T', 'S', 'T', 'R', 'A', 'C', 'E', '1'}

const formatVersion = 1

// ChunkLen is the number of accesses per chunk (the unit of parallel
// encode/decode).
const ChunkLen = 4096

// flushBatch is how many filled chunks the Writer accumulates before
// encoding them as one parallel batch.
const flushBatch = 64

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// rawChunk is one not-yet-encoded run of accesses for a single CPU.
type rawChunk struct {
	cpu  int
	accs []workload.Access
}

// encodeChunk renders one chunk (header and payload) to bytes.
func encodeChunk(c rawChunk) []byte {
	payload := make([]byte, 0, 4*len(c.accs))
	prev := int64(0)
	for _, a := range c.accs {
		payload = binary.AppendUvarint(payload, zigzag(int64(a.Block)-prev))
		prev = int64(a.Block)
		bit := uint64(0)
		if a.Op == coherence.Store {
			bit = 1
		}
		payload = binary.AppendUvarint(payload, uint64(a.Think)<<1|bit)
	}
	out := make([]byte, 0, len(payload)+12)
	out = binary.AppendUvarint(out, uint64(c.cpu))
	out = binary.AppendUvarint(out, uint64(len(c.accs)))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// decodePayload decodes count accesses from one chunk payload.
func decodePayload(payload []byte, count int) ([]workload.Access, error) {
	accs := make([]workload.Access, count)
	prev := int64(0)
	off := 0
	for i := range accs {
		d, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: corrupt block delta at access %d", i)
		}
		off += n
		prev += unzigzag(d)
		t, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: corrupt think field at access %d", i)
		}
		off += n
		op := coherence.Load
		if t&1 == 1 {
			op = coherence.Store
		}
		accs[i] = workload.Access{Block: coherence.Block(prev), Op: op, Think: int(t >> 1)}
	}
	if off != len(payload) {
		return nil, fmt.Errorf("trace: %d trailing payload bytes", len(payload)-off)
	}
	return accs, nil
}

// Writer streams a trace to w chunk by chunk. Append buffers per-CPU;
// filled chunks are encoded in parallel batches and written in order.
// Close flushes the partial chunks and reports the first error.
type Writer struct {
	w           io.Writer
	h           Header
	workers     int
	bufs        [][]workload.Access
	pending     []rawChunk
	wroteHeader bool
	err         error
}

// NewWriter returns a Writer for a trace with the given header. workers
// bounds the encode fan-out (0 = one per CPU core, 1 = serial).
func NewWriter(w io.Writer, h Header, workers int) (*Writer, error) {
	if h.CPUs < 1 {
		return nil, fmt.Errorf("trace: header needs at least one cpu, got %d", h.CPUs)
	}
	if h.FootprintBytes < 0 || h.WarmupPerCPU < 0 || h.MeasurePerCPU < 0 {
		return nil, fmt.Errorf("trace: negative header field")
	}
	return &Writer{w: w, h: h, workers: workers, bufs: make([][]workload.Access, h.CPUs)}, nil
}

// Err returns the first write/encode error, if any.
func (w *Writer) Err() error { return w.err }

// Append adds one access to cpu's stream.
func (w *Writer) Append(cpu int, a workload.Access) {
	if w.err != nil {
		return
	}
	if cpu < 0 || cpu >= len(w.bufs) {
		w.err = fmt.Errorf("trace: append for cpu %d outside header's %d cpus", cpu, len(w.bufs))
		return
	}
	w.bufs[cpu] = append(w.bufs[cpu], a)
	if len(w.bufs[cpu]) >= ChunkLen {
		w.pending = append(w.pending, rawChunk{cpu: cpu, accs: w.bufs[cpu]})
		w.bufs[cpu] = nil
		if len(w.pending) >= flushBatch {
			w.flush()
		}
	}
}

// flush encodes the pending chunks across the pool and writes them in
// order.
func (w *Writer) flush() {
	if w.err != nil || (w.wroteHeader && len(w.pending) == 0) {
		return
	}
	if !w.wroteHeader {
		hdr := magic[:]
		hdr = binary.AppendUvarint(hdr, formatVersion)
		hdr = binary.AppendUvarint(hdr, uint64(w.h.CPUs))
		hdr = binary.AppendUvarint(hdr, uint64(len(w.h.Name)))
		hdr = append(hdr, w.h.Name...)
		hdr = binary.AppendUvarint(hdr, uint64(w.h.FootprintBytes))
		hdr = binary.AppendUvarint(hdr, uint64(w.h.WarmupPerCPU))
		hdr = binary.AppendUvarint(hdr, uint64(w.h.MeasurePerCPU))
		if _, err := w.w.Write(hdr); err != nil {
			w.err = err
			return
		}
		w.wroteHeader = true
	}
	encoded, err := parallel.Map(w.workers, len(w.pending), func(i int) ([]byte, error) {
		return encodeChunk(w.pending[i]), nil
	})
	if err != nil {
		w.err = err
		return
	}
	w.pending = w.pending[:0]
	for _, chunk := range encoded {
		if _, err := w.w.Write(chunk); err != nil {
			w.err = err
			return
		}
	}
}

// Close flushes everything buffered (including the header of an empty
// trace) and returns the first error. It does not close the underlying
// writer.
func (w *Writer) Close() error {
	for cpu, buf := range w.bufs {
		if len(buf) > 0 {
			w.pending = append(w.pending, rawChunk{cpu: cpu, accs: buf})
			w.bufs[cpu] = nil
		}
	}
	w.flush()
	return w.err
}

// Encode writes t to w in file format. workers bounds the encode
// fan-out (0 = one per CPU core, 1 = serial).
func Encode(t *Trace, w io.Writer, workers int) error {
	tw, err := NewWriter(w, t.Header, workers)
	if err != nil {
		return err
	}
	for cpu, stream := range t.Streams {
		for _, a := range stream {
			tw.Append(cpu, a)
		}
	}
	return tw.Close()
}

// chunkRef locates one chunk of a trace image: its stream, its access
// count and its still-encoded payload.
type chunkRef struct {
	cpu     int
	count   int
	payload []byte
}

// scan parses a trace image's header and chunk directory without
// decoding any payload. It rejects a bad magic or version, an
// implausible cpu count, a chunk for a cpu beyond the header's, any
// truncation, and a chunk whose count its payload cannot hold — each
// access encodes to at least two bytes (delta + think), so a count
// beyond plen/2 is corrupt, and is caught before the count sizes any
// allocation. perCPU holds each stream's access count.
func scan(data []byte) (h Header, chunks []chunkRef, perCPU []int64, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return h, nil, nil, fmt.Errorf("trace: bad magic (not a trace file)")
	}
	off := len(magic)
	next := func(field string) uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			err = fmt.Errorf("trace: corrupt %s", field)
			return 0
		}
		off += n
		return v
	}
	version := next("version")
	if err == nil && version != formatVersion {
		err = fmt.Errorf("trace: unsupported format version %d (have %d)", version, formatVersion)
	}
	cpus := next("cpu count")
	if err == nil && (cpus < 1 || cpus > 1<<20) {
		err = fmt.Errorf("trace: implausible cpu count %d", cpus)
	}
	nameLen := next("name length")
	if err == nil && uint64(len(data)-off) < nameLen {
		err = fmt.Errorf("trace: truncated name")
	}
	if err != nil {
		return h, nil, nil, err
	}
	h.CPUs = int(cpus)
	h.Name = string(data[off : off+int(nameLen)])
	off += int(nameLen)
	h.FootprintBytes = int64(next("footprint"))
	h.WarmupPerCPU = int(next("warmup quota"))
	h.MeasurePerCPU = int(next("measure quota"))
	if err != nil {
		return h, nil, nil, err
	}

	perCPU = make([]int64, h.CPUs)
	for off < len(data) {
		cpu := next("chunk cpu")
		if err == nil && cpu >= cpus {
			err = fmt.Errorf("trace: chunk for cpu %d beyond header's %d cpus", cpu, cpus)
		}
		count := next("chunk count")
		plen := next("chunk payload length")
		if err != nil {
			return h, nil, nil, err
		}
		if count == 0 || uint64(len(data)-off) < plen {
			return h, nil, nil, fmt.Errorf("trace: truncated chunk for cpu %d", cpu)
		}
		if count > plen/2 {
			return h, nil, nil, fmt.Errorf("trace: chunk count %d exceeds its %d payload bytes", count, plen)
		}
		chunks = append(chunks, chunkRef{cpu: int(cpu), count: int(count), payload: data[off : off+int(plen)]})
		perCPU[cpu] += int64(count)
		off += int(plen)
	}
	return h, chunks, perCPU, nil
}

// Decode parses a complete trace file image. Chunk payloads decode
// across the pool (workers as in Encode).
func Decode(data []byte, workers int) (*Trace, error) {
	h, chunks, counts, err := scan(data)
	if err != nil {
		return nil, err
	}
	decoded, err := parallel.Map(workers, len(chunks), func(i int) ([]workload.Access, error) {
		accs, err := decodePayload(chunks[i].payload, chunks[i].count)
		if err != nil {
			return nil, fmt.Errorf("%w (chunk %d, cpu %d)", err, i, chunks[i].cpu)
		}
		return accs, nil
	})
	if err != nil {
		return nil, err
	}
	streams := make([][]workload.Access, h.CPUs)
	for cpu := range streams {
		streams[cpu] = make([]workload.Access, 0, counts[cpu])
	}
	for i, c := range chunks {
		streams[c.cpu] = append(streams[c.cpu], decoded[i]...)
	}
	return &Trace{Header: h, Streams: streams}, nil
}

// Stat summarizes a trace file without decoding chunk payloads.
type Stat struct {
	Header Header
	// PerCPU is the access count of each stream.
	PerCPU []int64
	// FileBytes is the encoded size.
	FileBytes int64
}

// Accesses returns the total access count.
func (s *Stat) Accesses() int64 {
	var n int64
	for _, c := range s.PerCPU {
		n += c
	}
	return n
}

// StatFile reads a trace's header and chunk directory only — payloads
// are skipped, so this is cheap even for large traces. It rejects what
// Decode rejects, with errors naming path.
func StatFile(path string) (*Stat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	h, _, perCPU, err := scan(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Stat{Header: h, PerCPU: perCPU, FileBytes: int64(len(data))}, nil
}

// WriteFile encodes t to path (workers as in Encode).
func (t *Trace) WriteFile(path string, workers int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(t, f, workers); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads and decodes the trace at path (workers as in Decode).
func ReadFile(path string, workers int) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(data, workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
