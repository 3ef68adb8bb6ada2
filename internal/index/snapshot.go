package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/parallel"
)

// Snapshot binds an index to the property identities behind its vector
// ids: Keys[id] is the (source, name) whose embedded name vector sits at
// slot id. A serve replica loads one snapshot per model and answers
// "neighbours of property X" without re-embedding or re-building — the
// index analogue of a trained model file.
//
// Snapshot v1 payload = uint32 nKeys | nKeys × (source string, name
// string) | the index payload (see persist.go), framed in a
// magic/version/length/CRC envelope (magic "LEAPMESX").
type Snapshot struct {
	// Keys holds the property identity for every vector id, in id order.
	Keys []dataset.Key

	idx   *Index
	byKey map[dataset.Key]int
}

// BuildSnapshot embeds every property name with store.EncodePhrase and
// builds an index over the vectors, in property order. Properties are
// deduplicated by Key (first occurrence wins), mirroring dataset
// semantics where (source, name) is an identity.
func BuildSnapshot(ctx context.Context, store *embedding.Store, props []dataset.Property, opts Options) (*Snapshot, error) {
	if len(props) == 0 {
		return nil, errors.New("index: snapshot needs at least one property")
	}
	s := &Snapshot{byKey: make(map[dataset.Key]int, len(props))}
	for _, p := range props {
		k := p.Key()
		if _, dup := s.byKey[k]; dup {
			continue
		}
		s.byKey[k] = len(s.Keys)
		s.Keys = append(s.Keys, k)
	}
	spans := parallel.Chunks(len(s.Keys), buildChunk)
	chunks, rep, err := parallel.Map(ctx, opts.Workers, len(spans),
		func(i int) string { return fmt.Sprintf("embed span %d", i) },
		func(i int) ([][]float64, error) {
			sp := spans[i]
			out := make([][]float64, 0, sp.Hi-sp.Lo)
			for j := sp.Lo; j < sp.Hi; j++ {
				out = append(out, store.EncodePhrase(s.Keys[j].Name))
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	if rep != nil && rep.Failed() > 0 {
		return nil, fmt.Errorf("index: embedding properties failed: %s", rep)
	}
	vecs := make([][]float64, 0, len(s.Keys))
	for _, c := range chunks {
		vecs = append(vecs, c...)
	}
	ix, err := Build(ctx, vecs, opts)
	if err != nil {
		return nil, err
	}
	s.idx = ix
	return s, nil
}

// Index returns the underlying vector index.
func (s *Snapshot) Index() *Index { return s.idx }

// Len returns the number of snapshot properties.
func (s *Snapshot) Len() int { return len(s.Keys) }

// Lookup returns the vector id for a property key, if indexed.
func (s *Snapshot) Lookup(k dataset.Key) (int, bool) {
	id, ok := s.byKey[k]
	return id, ok
}

// Neighbors returns up to k nearest candidates for the property at id,
// excluding id itself.
func (s *Snapshot) Neighbors(id, k int) []Candidate {
	if id < 0 || id >= s.idx.Len() {
		return nil
	}
	// Over-fetch by one: the query vector's own slot is its best match.
	cands := s.idx.Query(s.idx.Vector(id), k+1)
	out := cands[:0]
	for _, c := range cands {
		if c.ID != id {
			out = append(out, c)
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Write serialises the snapshot. (Named Write, not WriteTo: the
// io.WriterTo contract returns a byte count this envelope writer does
// not track.)
func (s *Snapshot) Write(w io.Writer) error {
	bw := &binWriter{}
	bw.u32(uint32(len(s.Keys)))
	for _, k := range s.Keys {
		bw.str(k.Source)
		bw.str(k.Name)
	}
	bw.buf.Write(indexPayload(s.idx))
	return writeEnvelope(w, bw.buf.Bytes())
}

// ReadSnapshot loads a snapshot written by Write. It accepts only what
// Write can produce: distinct keys, one vector per key and no bytes
// after the index, so a loaded snapshot re-saves to the same bytes.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	payload, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	br := &binReader{r: bytes.NewReader(payload)}
	n, err := br.count(8, "snapshot key")
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Keys: make([]dataset.Key, n), byKey: make(map[dataset.Key]int, n)}
	for i := range s.Keys {
		src, err := br.str()
		if err != nil {
			return nil, err
		}
		name, err := br.str()
		if err != nil {
			return nil, err
		}
		k := dataset.Key{Source: src, Name: name}
		if _, dup := s.byKey[k]; dup {
			return nil, fmt.Errorf("index: snapshot key %s appears twice", k)
		}
		s.Keys[i] = k
		s.byKey[k] = i
	}
	ix, err := indexFromPayload(br)
	if err != nil {
		return nil, err
	}
	if ix.Len() != len(s.Keys) {
		return nil, fmt.Errorf("index: snapshot has %d keys but %d vectors", len(s.Keys), ix.Len())
	}
	if br.r.Len() != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes after the snapshot index", br.r.Len())
	}
	s.idx = ix
	return s, nil
}

// WriteFile writes the snapshot to path, creating or truncating the file.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshotFile loads a snapshot file written by WriteFile.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
