package core

import (
	"fmt"
	"io"
	"os"

	"leapme/internal/features"
)

// ModelInfo describes a model file without instantiating a matcher: the
// serving registry and the /v1/models endpoint use it to report what a
// file contains and to construct a matcher with the right feature
// configuration before loading the weights.
type ModelInfo struct {
	// FormatVersion is the on-disk format version (2 or 3).
	FormatVersion int
	// HasDescriptor reports whether the file self-describes its feature
	// configuration and embedding dimension (v3+). For v2 files Features
	// and EmbeddingDim are zero and the caller must know the training
	// configuration out of band.
	HasDescriptor bool
	// Features is the feature configuration the model was trained with
	// (v3+ only).
	Features features.Config
	// EmbeddingDim is the embedding store dimension the model was trained
	// against (v3+ only).
	EmbeddingDim int
	// Standardized reports whether the file carries fitted z-score
	// parameters for the pair features.
	Standardized bool
	// InDim is the classifier input (pair-vector) dimension.
	InDim int
	// Hidden lists the hidden-layer widths.
	Hidden []int
	// OutDim is the number of output classes (2 for LEAPME).
	OutDim int
	// PayloadBytes is the checksummed payload size.
	PayloadBytes int
	// CRC is the payload's CRC-32 (IEEE) — a cheap content fingerprint
	// for cache keys and model listings.
	CRC uint32
}

// String renders a one-line summary for listings and logs.
func (i ModelInfo) String() string {
	feat := "unknown"
	if i.HasDescriptor {
		feat = i.Features.String()
	}
	return fmt.Sprintf("v%d features=%s embed=%d in=%d hidden=%v out=%d crc=%08x",
		i.FormatVersion, feat, i.EmbeddingDim, i.InDim, i.Hidden, i.OutDim, i.CRC)
}

// LoadInfo reads a model file's metadata — format version, feature
// configuration, dimensions, checksum — without building a matcher or
// retaining the weights. The whole payload is decoded exactly as
// ReadModel would, so a file LoadInfo accepts loads into a matcher
// configured to its descriptor, and corrupt files are rejected here
// rather than surfacing later at load time.
func LoadInfo(r io.Reader) (ModelInfo, error) {
	version, payload, crc, err := readEnvelope(r)
	if err != nil {
		return ModelInfo{}, err
	}
	mf, err := decodeModel(version, payload)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		FormatVersion: version,
		HasDescriptor: mf.hasDescriptor,
		Features:      mf.features,
		EmbeddingDim:  mf.embedDim,
		Standardized:  mf.mean != nil,
		InDim:         mf.net.InDim(),
		Hidden:        mf.net.Hidden(),
		OutDim:        mf.net.OutDim(),
		PayloadBytes:  len(payload),
		CRC:           crc,
	}, nil
}

// LoadInfoFile is LoadInfo over a file path.
func LoadInfoFile(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, err
	}
	defer f.Close()
	return LoadInfo(f)
}
