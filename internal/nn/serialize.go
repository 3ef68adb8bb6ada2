package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary model format: magic, layer count, then per layer
// (rows, cols, activation, weights row-major, biases), all little-endian.
const modelMagic = "LEAPMENN"

// WriteTo serialises the network's architecture and weights.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(k int, err error) error {
		written += int64(k)
		return err
	}
	if err := count(bw.WriteString(modelMagic)); err != nil {
		return written, err
	}
	buf := make([]byte, 8)
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		return count(bw.Write(buf[:4]))
	}
	writeF64 := func(v float64) error {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		return count(bw.Write(buf))
	}
	if err := writeU32(uint32(len(n.layers))); err != nil {
		return written, err
	}
	for _, l := range n.layers {
		if err := writeU32(uint32(l.rows)); err != nil {
			return written, err
		}
		if err := writeU32(uint32(l.cols)); err != nil {
			return written, err
		}
		if err := writeU32(uint32(l.act)); err != nil {
			return written, err
		}
		for _, x := range n.w[l.woff : l.woff+l.rows*l.cols] {
			if err := writeF64(x); err != nil {
				return written, err
			}
		}
		for _, x := range n.b[l.boff : l.boff+l.rows] {
			if err := writeF64(x); err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}

// Read deserialises a network written by WriteTo. It consumes exactly
// the network's bytes from r, with no read-ahead, so the caller can
// check what follows. Weights and biases are read in fixed-size chunks
// straight onto the network's slabs, which grow only as bytes arrive: a
// header claiming a layer larger than r holds fails at end of input,
// having allocated about as much as it read.
func Read(r io.Reader) (*Network, error) {
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != modelMagic {
		return nil, fmt.Errorf("nn: bad magic %q", magic)
	}
	var buf [4]byte
	readU32 := func() (int, error) {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint32(buf[:])), nil
	}
	nLayers, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("nn: reading layer count: %w", err)
	}
	if nLayers <= 0 || nLayers > 1024 {
		return nil, fmt.Errorf("nn: implausible layer count %d", nLayers)
	}
	n := &Network{}
	for li := 0; li < nLayers; li++ {
		rows, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d rows: %w", li, err)
		}
		cols, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d cols: %w", li, err)
		}
		actI, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d activation: %w", li, err)
		}
		if rows <= 0 || cols <= 0 || rows > 1<<20 || cols > 1<<20 {
			return nil, fmt.Errorf("nn: implausible layer %d shape %dx%d", li, rows, cols)
		}
		if actI > int(ActIdentity) {
			return nil, fmt.Errorf("nn: unknown activation %d in layer %d", actI, li)
		}
		if li > 0 && n.outDim != cols {
			return nil, fmt.Errorf("nn: layer %d input dim %d does not match previous output %d", li, cols, n.outDim)
		}
		n.addLayer(rows, cols, Activation(actI))
		if n.w, err = readFloats(r, n.w, rows*cols); err != nil {
			return nil, fmt.Errorf("nn: layer %d weights: %w", li, err)
		}
		if n.b, err = readFloats(r, n.b, rows); err != nil {
			return nil, fmt.Errorf("nn: layer %d biases: %w", li, err)
		}
	}
	return n, nil
}

// readChunk is the number of float64s readFloats reads per call to r.
const readChunk = 512

// readFloats appends count little-endian float64s from r to dst,
// readChunk at a time, appending each chunk only after it has arrived.
func readFloats(r io.Reader, dst []float64, count int) ([]float64, error) {
	var buf [8 * readChunk]byte
	for count > 0 {
		k := min(count, readChunk)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		count -= k
	}
	return dst, nil
}
