package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"leapme/internal/features"
	"leapme/internal/nn"
)

// Model persistence: the trained network plus the fitted feature
// standardiser, so a matcher can be trained once and reused (including
// across datasets — the transfer-learning deployment).
//
// On-disk layout (little-endian):
//
//	magic "LEAPMEMD" | uint32 version | uint64 payloadLen |
//	payload | uint32 CRC-32 (IEEE) of payload
//
// v3 payload = uint32 feature bits | uint32 embedding dim |
// uint32 standardiser length n | n × (mean f64, invStd f64) |
// the nn serialisation, and nothing after it. The v2 payload is the
// same without the leading descriptor (feature bits, embedding dim); v2
// files remain readable but cannot be described by LoadInfo beyond
// their network shape. The length prefix and trailing checksum let
// ReadModel reject truncated or bit-flipped files with a descriptive
// error instead of loading garbage weights.
//
// Files written with the retired int8 kernel set featBitQuantized and
// carry a length-prefixed quantised block before the network. Both
// loaders reject them with ErrQuantizedModel.

const (
	matcherMagic = "LEAPMEMD"
	// modelVersion is the current format version, written by WriteModel.
	// v3 added the feature-config + embedding-dim descriptor so a model
	// file is self-describing (LoadInfo, the serving model registry).
	// v2 (standardiser + network only) is still readable. v1 (the
	// unversioned seed format) is not; retrain and re-save.
	modelVersion    = 3
	minModelVersion = 2
	// maxModelPayload bounds payload allocation when reading untrusted
	// files: 1 GiB is orders of magnitude beyond any real model here.
	maxModelPayload = 1 << 30
)

// Feature-config descriptor bits (v3+).
const (
	featBitInstances = 1 << iota
	featBitNames
	featBitEmbeddings
	featBitNonEmbeddings
	// featBitQuantized marks a payload that embeds an int8 quantised
	// kernel block between the standardiser and the float64 network.
	// This build writes no such files and rejects them on read.
	featBitQuantized
)

// knownFeatBits masks every descriptor bit this build understands. A
// set bit outside the mask means the file was written by a newer format
// this build cannot interpret — readers reject it (fail closed) rather
// than silently dropping whatever the bit gated.
const knownFeatBits = featBitInstances | featBitNames | featBitEmbeddings |
	featBitNonEmbeddings | featBitQuantized

// ErrQuantizedModel is the load error for a model file whose descriptor
// sets the int8 quantisation bit. Such files also hold the float64
// network, but loading it would silently serve other scores than the
// file was saved to serve; retrain and re-save the model instead.
var ErrQuantizedModel = errors.New("core: model file embeds an int8 quantised kernel, which this build no longer serves; retrain and re-save it")

func featBits(c features.Config) uint32 {
	var b uint32
	if c.Instances {
		b |= featBitInstances
	}
	if c.Names {
		b |= featBitNames
	}
	if c.Embeddings {
		b |= featBitEmbeddings
	}
	if c.NonEmbeddings {
		b |= featBitNonEmbeddings
	}
	return b
}

func featConfig(b uint32) features.Config {
	return features.Config{
		Instances:     b&featBitInstances != 0,
		Names:         b&featBitNames != 0,
		Embeddings:    b&featBitEmbeddings != 0,
		NonEmbeddings: b&featBitNonEmbeddings != 0,
	}
}

// WriteModel serialises the trained network and standardiser. Property
// features are not serialised — recompute them with ComputeFeatures on
// whatever dataset the model is applied to.
func (m *Matcher) WriteModel(w io.Writer) error {
	if m.net == nil {
		return errors.New("core: WriteModel on untrained matcher")
	}
	// The payload is serialised into memory first so its exact length and
	// checksum are known before anything hits w.
	var payload bytes.Buffer
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[:4], featBits(m.opts.Features))
	payload.Write(buf[:4])
	binary.LittleEndian.PutUint32(buf[:4], uint32(m.ex.EmbeddingDim()))
	payload.Write(buf[:4])
	n := 0
	if m.featMean != nil {
		n = len(m.featMean)
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	payload.Write(buf[:4])
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(m.featMean[i]))
		payload.Write(buf)
		binary.LittleEndian.PutUint64(buf, math.Float64bits(m.featInvStd[i]))
		payload.Write(buf)
	}
	if _, err := m.net.WriteTo(&payload); err != nil {
		return err
	}

	if _, err := io.WriteString(w, matcherMagic); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], modelVersion)
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf, uint64(payload.Len()))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(payload.Bytes())
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], sum)
	_, err := w.Write(buf[:4])
	return err
}

// readEnvelope reads and verifies the model-file envelope: magic, version,
// length-prefixed payload, CRC-32. It returns the format version and the
// checksum-verified payload bytes.
func readEnvelope(r io.Reader) (version int, payload []byte, crc uint32, err error) {
	buf := make([]byte, 8)
	magic := make([]byte, len(matcherMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, nil, 0, fmt.Errorf("core: reading model magic: %w", err)
	}
	if string(magic) != matcherMagic {
		return 0, nil, 0, fmt.Errorf("core: bad model magic %q (not a LEAPME model file)", magic)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return 0, nil, 0, fmt.Errorf("core: reading model version: %w", err)
	}
	v := int(binary.LittleEndian.Uint32(buf[:4]))
	if v < minModelVersion || v > modelVersion {
		return 0, nil, 0, fmt.Errorf("core: unsupported model format version %d (this build reads v%d–v%d; retrain and re-save)",
			v, minModelVersion, modelVersion)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, 0, fmt.Errorf("core: reading model payload length: %w", err)
	}
	plen := binary.LittleEndian.Uint64(buf)
	if plen > maxModelPayload {
		return 0, nil, 0, fmt.Errorf("core: implausible model payload length %d", plen)
	}
	payload = make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("core: model payload truncated: %w", err)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return 0, nil, 0, fmt.Errorf("core: reading model checksum: %w", err)
	}
	want := binary.LittleEndian.Uint32(buf[:4])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, 0, fmt.Errorf("core: model payload corrupt: CRC-32 %08x, want %08x", got, want)
	}
	return v, payload, want, nil
}

// modelFile is a decoded model payload.
type modelFile struct {
	hasDescriptor bool
	features      features.Config
	embedDim      int
	mean, invStd  []float64 // nil when the model is not standardised
	net           *nn.Network
}

// decodeModel parses a checksum-verified payload of the given format
// version: the descriptor (v3), the standardiser and the network, with
// no bytes left over. ReadModel and LoadInfo both decode through it, so
// they accept exactly the same files.
func decodeModel(version int, payload []byte) (*modelFile, error) {
	pr := bytes.NewReader(payload)
	mf := &modelFile{}
	if version >= 3 {
		fc, embedDim, err := readDescriptor(pr)
		if err != nil {
			return nil, err
		}
		mf.hasDescriptor, mf.features, mf.embedDim = true, fc, embedDim
	}
	mean, invStd, err := readStandardiser(pr)
	if err != nil {
		return nil, err
	}
	net, err := nn.Read(pr)
	if err != nil {
		return nil, fmt.Errorf("core: reading network: %w", err)
	}
	if pr.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after the network", pr.Len())
	}
	if mean != nil && len(mean) != net.InDim() {
		return nil, fmt.Errorf("core: model standardiser dim %d does not match network input dim %d", len(mean), net.InDim())
	}
	if net.OutDim() < 2 {
		return nil, fmt.Errorf("core: model has %d output classes, scoring needs at least 2", net.OutDim())
	}
	mf.mean, mf.invStd, mf.net = mean, invStd, net
	return mf, nil
}

// readDescriptor parses the v3 payload descriptor off the front of pr.
// The quantisation bit and unknown descriptor bits are hard errors: they
// gate payload content this build does not parse, and guessing would
// corrupt everything after.
func readDescriptor(pr *bytes.Reader) (fc features.Config, embedDim int, err error) {
	buf := make([]byte, 4)
	if _, err := io.ReadFull(pr, buf); err != nil {
		return fc, 0, fmt.Errorf("core: reading model feature config: %w", err)
	}
	bits := binary.LittleEndian.Uint32(buf)
	if bits&featBitQuantized != 0 {
		return fc, 0, ErrQuantizedModel
	}
	if unknown := bits &^ knownFeatBits; unknown != 0 {
		return fc, 0, fmt.Errorf("core: model descriptor has unknown feature bits %#x (written by a newer format?)", unknown)
	}
	fc = featConfig(bits)
	if _, err := io.ReadFull(pr, buf); err != nil {
		return fc, 0, fmt.Errorf("core: reading model embedding dim: %w", err)
	}
	embedDim = int(binary.LittleEndian.Uint32(buf))
	if embedDim > 1<<20 {
		return fc, 0, fmt.Errorf("core: implausible model embedding dim %d", embedDim)
	}
	return fc, embedDim, nil
}

// readStandardiser parses the standardiser block off the front of pr.
func readStandardiser(pr *bytes.Reader) (mean, invStd []float64, err error) {
	buf := make([]byte, 8)
	if _, err := io.ReadFull(pr, buf[:4]); err != nil {
		return nil, nil, fmt.Errorf("core: reading standardiser length: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n > pr.Len()/16 {
		return nil, nil, fmt.Errorf("core: implausible standardiser length %d", n)
	}
	if n == 0 {
		return nil, nil, nil
	}
	mean = make([]float64, n)
	invStd = make([]float64, n)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(pr, buf); err != nil {
			return nil, nil, fmt.Errorf("core: reading standardiser: %w", err)
		}
		mean[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		if _, err := io.ReadFull(pr, buf); err != nil {
			return nil, nil, fmt.Errorf("core: reading standardiser: %w", err)
		}
		invStd[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	return mean, invStd, nil
}

// ReadModel loads a model saved by WriteModel into the matcher. The
// matcher must have been constructed with the same embedding store
// dimension and feature configuration as the saved model; self-describing
// (v3) files verify both explicitly, and the network input dimension is
// always checked against the matcher's pair dimension. Unknown format
// versions, truncated or corrupt payloads (checksum mismatch) and
// quantised files (ErrQuantizedModel) are rejected with a descriptive
// error; the matcher is left unmodified on any failure.
func (m *Matcher) ReadModel(r io.Reader) error {
	version, payload, _, err := readEnvelope(r)
	if err != nil {
		return err
	}
	mf, err := decodeModel(version, payload)
	if err != nil {
		return err
	}
	if mf.hasDescriptor {
		if mf.features != m.opts.Features {
			return fmt.Errorf("core: model was trained with features %s, matcher configured for %s",
				mf.features, m.opts.Features)
		}
		if mf.embedDim != m.ex.EmbeddingDim() {
			return fmt.Errorf("core: model embedding dim %d does not match store dim %d",
				mf.embedDim, m.ex.EmbeddingDim())
		}
	}
	if mf.net.InDim() != m.pairer.Dim() {
		return fmt.Errorf("core: model input dim %d does not match pair dim %d", mf.net.InDim(), m.pairer.Dim())
	}
	m.featMean, m.featInvStd = mf.mean, mf.invStd
	m.setModel(mf.net)
	return nil
}
