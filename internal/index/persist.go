package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Snapshot files carry the same envelope as model files
// (internal/core): magic | uint32 version | uint64 payloadLen | payload |
// uint32 CRC-32 (IEEE) of payload, all little-endian. The length prefix
// and trailing checksum let readers reject truncated or bit-flipped files
// with a descriptive error instead of probing garbage buckets.
//
// The index part of a snapshot payload = uint32 backend code (1, LSH) |
// int64 seed | uint32 dim | uint64 n | n×dim float64 vectors | uint32
// tables | uint32 bits | uint32 probes | dim float64 center |
// tables×bits×dim float64 hyperplanes | tables×n uint32 signatures.
// Buckets are rebuilt on load: they are a pure function of the
// signatures. Backend code 2 marked the retired HNSW graph; the reader
// names it and asks for a rebuild.
//
// Because every serialized field is bit-deterministic for a fixed
// (vectors, seed) — see doc.go — two builds of the same input produce
// byte-identical files regardless of worker count, which is exactly what
// the determinism gate diffs.

const (
	snapshotMagic = "LEAPMESX"
	indexVersion  = 1
	// maxIndexPayload bounds payload allocation when reading untrusted
	// files: 1 GiB is orders of magnitude beyond any real index here.
	maxIndexPayload = 1 << 30

	backendCodeLSH = 1
	// backendCodeHNSW is recognised only to reject it by name.
	backendCodeHNSW = 2
)

// binWriter accumulates the little-endian payload.
type binWriter struct {
	buf bytes.Buffer
	tmp [8]byte
}

func (w *binWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.tmp[:4], v)
	w.buf.Write(w.tmp[:4])
}

func (w *binWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.tmp[:], v)
	w.buf.Write(w.tmp[:])
}

func (w *binWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf.WriteString(s)
}

func (w *binWriter) vecs(vs [][]float64) {
	for _, v := range vs {
		for _, x := range v {
			w.f64(x)
		}
	}
}

// binReader consumes a checksum-verified payload.
type binReader struct {
	r   *bytes.Reader
	tmp [8]byte
}

func (r *binReader) u32() (uint32, error) {
	if _, err := io.ReadFull(r.r, r.tmp[:4]); err != nil {
		return 0, fmt.Errorf("index: payload truncated: %w", err)
	}
	return binary.LittleEndian.Uint32(r.tmp[:4]), nil
}

func (r *binReader) u64() (uint64, error) {
	if _, err := io.ReadFull(r.r, r.tmp[:]); err != nil {
		return 0, fmt.Errorf("index: payload truncated: %w", err)
	}
	return binary.LittleEndian.Uint64(r.tmp[:]), nil
}

func (r *binReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *binReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(r.r.Len()) {
		return "", fmt.Errorf("index: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return "", fmt.Errorf("index: payload truncated: %w", err)
	}
	return string(b), nil
}

// count reads a u32 element count and validates it against what the
// remaining payload could possibly hold (elemSize bytes per element).
func (r *binReader) count(elemSize int, what string) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(elemSize) > int64(r.r.Len()) {
		return 0, fmt.Errorf("index: implausible %s count %d", what, n)
	}
	return int(n), nil
}

// vecs reads n×dim float64 rows into one contiguous backing array — the
// same layout Build produces, so loaded indexes keep its query-time
// memory locality.
func (r *binReader) vecs(n, dim int) ([][]float64, error) {
	flat := make([]float64, n*dim)
	for i := range flat {
		v, err := r.f64()
		if err != nil {
			return nil, err
		}
		flat[i] = v
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out, nil
}

// writeEnvelope frames payload with magic/version/length/CRC and writes
// the whole file to w.
func writeEnvelope(w io.Writer, payload []byte) error {
	var tmp [8]byte
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(tmp[:4], indexVersion)
	if _, err := w.Write(tmp[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(payload)))
	if _, err := w.Write(tmp[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(payload))
	_, err := w.Write(tmp[:4])
	return err
}

// readEnvelope reads and verifies magic, version, length-prefixed
// payload, and CRC-32, returning the verified payload bytes.
func readEnvelope(r io.Reader) ([]byte, error) {
	var tmp [8]byte
	got := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(got) != snapshotMagic {
		return nil, fmt.Errorf("index: bad magic %q (want %q)", got, snapshotMagic)
	}
	if _, err := io.ReadFull(r, tmp[:4]); err != nil {
		return nil, fmt.Errorf("index: reading version: %w", err)
	}
	if v := binary.LittleEndian.Uint32(tmp[:4]); v != indexVersion {
		return nil, fmt.Errorf("index: unsupported format version %d (this build reads v%d; rebuild the index)", v, indexVersion)
	}
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return nil, fmt.Errorf("index: reading payload length: %w", err)
	}
	plen := binary.LittleEndian.Uint64(tmp[:])
	if plen > maxIndexPayload {
		return nil, fmt.Errorf("index: implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("index: payload truncated: %w", err)
	}
	if _, err := io.ReadFull(r, tmp[:4]); err != nil {
		return nil, fmt.Errorf("index: reading checksum: %w", err)
	}
	want := binary.LittleEndian.Uint32(tmp[:4])
	if sum := crc32.ChecksumIEEE(payload); sum != want {
		return nil, fmt.Errorf("index: payload corrupt: CRC-32 %08x, want %08x", sum, want)
	}
	return payload, nil
}

// indexPayload serialises ix as the index part of a snapshot payload.
func indexPayload(ix *Index) []byte {
	bw := &binWriter{}
	bw.u32(backendCodeLSH)
	bw.u64(uint64(ix.seed))
	bw.u32(uint32(ix.dim))
	bw.u64(uint64(len(ix.vecs)))
	bw.vecs(ix.vecs)
	bw.u32(uint32(ix.tables))
	bw.u32(uint32(ix.bits))
	bw.u32(uint32(ix.probes))
	for _, x := range ix.center {
		bw.f64(x)
	}
	bw.vecs(ix.planes)
	for _, sigs := range ix.sigs {
		for _, s := range sigs {
			bw.u32(s)
		}
	}
	return bw.buf.Bytes()
}

// indexFromPayload reads the index part of a snapshot payload. Every
// count is checked against the bytes left before anything is allocated
// for it.
func indexFromPayload(br *binReader) (*Index, error) {
	code, err := br.u32()
	if err != nil {
		return nil, err
	}
	switch code {
	case backendCodeLSH:
	case backendCodeHNSW:
		return nil, errors.New("index: snapshot holds an HNSW index, which this build no longer reads; rebuild it with leapme index")
	default:
		return nil, fmt.Errorf("index: unknown backend code %d", code)
	}
	seed, err := br.u64()
	if err != nil {
		return nil, err
	}
	dim32, err := br.u32()
	if err != nil {
		return nil, err
	}
	dim := int(dim32)
	if dim <= 0 || dim > 1<<20 {
		return nil, fmt.Errorf("index: implausible dim %d", dim)
	}
	n64, err := br.u64()
	if err != nil {
		return nil, err
	}
	if n64 == 0 || n64 > uint64(br.r.Len()/(8*dim)) {
		return nil, fmt.Errorf("index: implausible vector count %d", n64)
	}
	n := int(n64)
	vecs, err := br.vecs(n, dim)
	if err != nil {
		return nil, err
	}
	tables, err := br.u32()
	if err != nil {
		return nil, err
	}
	bits, err := br.u32()
	if err != nil {
		return nil, err
	}
	probes, err := br.u32()
	if err != nil {
		return nil, err
	}
	if tables == 0 || bits == 0 || bits > 32 {
		return nil, fmt.Errorf("index: implausible lsh geometry tables=%d bits=%d", tables, bits)
	}
	// center + planes + signatures; tables is at most 2^32 and the
	// other factors are bounded above, so the product cannot overflow.
	need := 8*dim + int(tables)*(8*int(bits)*dim+4*n)
	if need > br.r.Len() {
		return nil, fmt.Errorf("index: lsh geometry tables=%d bits=%d needs %d bytes, payload has %d",
			tables, bits, need, br.r.Len())
	}
	ix := &Index{dim: dim, seed: int64(seed), tables: int(tables), bits: int(bits), probes: int(probes), vecs: vecs}
	center, err := br.vecs(1, dim)
	if err != nil {
		return nil, err
	}
	ix.center = center[0]
	if ix.planes, err = br.vecs(ix.tables*ix.bits, dim); err != nil {
		return nil, err
	}
	ix.sigs = make([][]uint32, ix.tables)
	ix.buckets = make([]map[uint32][]int, ix.tables)
	for t := range ix.sigs {
		ix.sigs[t] = make([]uint32, n)
		ix.buckets[t] = make(map[uint32][]int)
		for i := range ix.sigs[t] {
			s, err := br.u32()
			if err != nil {
				return nil, err
			}
			ix.sigs[t][i] = s
			ix.buckets[t][s] = append(ix.buckets[t][s], i)
		}
	}
	ix.initDerived()
	return ix, nil
}
