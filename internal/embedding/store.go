package embedding

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"leapme/internal/mathx"
	"leapme/internal/text"
)

// Store serves trained word vectors. It is immutable after construction
// and safe for concurrent readers.
type Store struct {
	dim   int
	ids   map[string]int
	words []string
	vecs  []float64 // every vector on one n×dim row-major slab
	zero  []float64 // returned for unknown words, never mutated
}

// NewStore builds a Store over words and vecs, the n×dim row-major slab
// of their vectors (word i's vector is vecs[i*dim:(i+1)*dim]). The store
// keeps both slices, so the caller must not modify them afterwards.
// Words must be unique and dim positive.
func NewStore(words []string, dim int, vecs []float64) (*Store, error) {
	if len(words) == 0 {
		return nil, errors.New("embedding: empty store")
	}
	if dim <= 0 {
		return nil, fmt.Errorf("embedding: dimension %d must be positive", dim)
	}
	if len(vecs) != len(words)*dim {
		return nil, fmt.Errorf("embedding: %d floats for %d words of dim %d", len(vecs), len(words), dim)
	}
	s := &Store{
		dim:   dim,
		ids:   make(map[string]int, len(words)),
		words: words,
		vecs:  vecs,
		zero:  make([]float64, dim),
	}
	for i, w := range words {
		if _, dup := s.ids[w]; dup {
			return nil, fmt.Errorf("embedding: duplicate word %q", w)
		}
		s.ids[w] = i
	}
	return s, nil
}

// row returns word id's vector, with its capacity cut at the row's end so
// a caller's append reallocates instead of writing into the next row.
func (s *Store) row(id int) []float64 {
	lo, hi := id*s.dim, (id+1)*s.dim
	return s.vecs[lo:hi:hi]
}

// Dim returns the embedding dimension.
func (s *Store) Dim() int { return s.dim }

// Size returns the number of words in the store.
func (s *Store) Size() int { return len(s.words) }

// Contains reports whether w has a vector.
func (s *Store) Contains(w string) bool {
	_, ok := s.ids[w]
	return ok
}

// Vector returns the vector for w, or the zero vector if w is unknown —
// the paper's convention for out-of-vocabulary words. The returned slice
// must not be modified.
func (s *Store) Vector(w string) []float64 {
	if id, ok := s.ids[w]; ok {
		return s.row(id)
	}
	return s.zero
}

// EncodePhrase tokenizes a free-text phrase and returns the average vector
// of its tokens. This is the operation LEAPME applies to both property
// names and property values. It is EncodePhraseInto on a fresh vector and
// a fresh scratch.
func (s *Store) EncodePhrase(phrase string) []float64 {
	dst := make([]float64, s.dim)
	var ts text.TokenScratch
	s.EncodePhraseInto(dst, phrase, &ts)
	return dst
}

// EncodePhraseInto writes the average vector of phrase's tokens into dst
// (length Dim) through a reusable token scratch: tokens are scanned with
// text.ScanTokens (bit-identical to text.Tokenize) and looked up without
// converting to string. The average zeroes dst, adds each token's vector
// in token order (an unknown token adds the zero vector, which still
// counts in the denominator: the paper maps unknown words to a vector
// filled with zeroes), then scales once; no tokens leave the zero vector.
// A warm scratch makes the whole call allocation-free; the embedding
// tests pin the bits to a Tokenize-then-average reference.
func (s *Store) EncodePhraseInto(dst []float64, phrase string, ts *text.TokenScratch) {
	if len(dst) != s.dim {
		panic(fmt.Sprintf("embedding: EncodePhraseInto dst has len %d, want %d", len(dst), s.dim))
	}
	mathx.Zero(dst)
	text.ScanTokens(phrase, ts)
	n := ts.Count()
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		vec := s.zero
		if id, ok := s.ids[string(ts.Token(i))]; ok {
			vec = s.row(id)
		}
		mathx.AddTo(dst, dst, vec)
	}
	mathx.ScaleTo(dst, dst, 1/float64(n))
}

// Similarity returns the cosine similarity between the vectors of two
// words (0 if either is unknown or zero).
func (s *Store) Similarity(a, b string) float64 {
	return mathx.CosineSimilarity(s.Vector(a), s.Vector(b))
}

// Neighbor is a nearest-neighbour query result.
type Neighbor struct {
	Word string
	Sim  float64
}

// Nearest returns the k words most cosine-similar to w, excluding w
// itself. It returns nil if w is unknown.
func (s *Store) Nearest(w string, k int) []Neighbor {
	id, ok := s.ids[w]
	if !ok || k <= 0 {
		return nil
	}
	q := s.row(id)
	out := make([]Neighbor, 0, len(s.words)-1)
	for i, word := range s.words {
		if i == id {
			continue
		}
		out = append(out, Neighbor{Word: word, Sim: mathx.CosineSimilarity(q, s.row(i))})
	}
	sort.Slice(out, func(a, b int) bool {
		//lint:allow floateq sort tie-break must be an exact total order; a tolerance comparator is not a strict weak ordering
		if out[a].Sim != out[b].Sim {
			return out[a].Sim > out[b].Sim
		}
		return out[a].Word < out[b].Word
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Words returns all words in the store in id order. The slice must not be
// modified.
func (s *Store) Words() []string { return s.words }

// storeMagic identifies the binary serialisation format.
const storeMagic = "LEAPMEv1"

// WriteTo serialises the store in a compact binary format:
// magic, dim, count, then length-prefixed words each followed by dim
// float64s in little-endian order.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.WriteString(storeMagic)); err != nil {
		return n, err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(s.dim))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(s.words)))
	if err := count(bw.Write(hdr)); err != nil {
		return n, err
	}
	buf := make([]byte, 8)
	for i, word := range s.words {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(word)))
		if err := count(bw.Write(buf[:4])); err != nil {
			return n, err
		}
		if err := count(bw.WriteString(word)); err != nil {
			return n, err
		}
		for _, x := range s.row(i) {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
			if err := count(bw.Write(buf)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// readChunk is the number of float64s ReadStore reads per call, and
// the cap on the entry capacity it reserves from the header's count.
const readChunk = 512

// ReadStore deserialises a store written by WriteTo, reading r through a
// buffer. What it allocates follows the bytes that arrive, not the
// header's claims: the word list and the vector slab grow from a capped
// capacity as entries are read, each vector appended to the slab
// readChunk floats at a time, so a header claiming more than r holds
// fails at end of input having allocated about as much as it read. Bytes
// after the last vector are an error.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("embedding: reading magic: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("embedding: bad magic %q", magic)
	}
	var buf [8 * readChunk]byte
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return nil, fmt.Errorf("embedding: reading header: %w", err)
	}
	dim := int(binary.LittleEndian.Uint32(buf[0:4]))
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if dim <= 0 || n <= 0 || dim > 1<<20 || n > 1<<28 {
		return nil, fmt.Errorf("embedding: implausible header dim=%d n=%d", dim, n)
	}
	words := make([]string, 0, min(n, readChunk))
	vecs := make([]float64, 0, min(n*dim, readChunk))
	var wb []byte // word bytes, reused across words
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("embedding: reading word %d length: %w", i, err)
		}
		wlen := int(binary.LittleEndian.Uint32(buf[:4]))
		if wlen < 0 || wlen > 1<<16 {
			return nil, fmt.Errorf("embedding: implausible word length %d", wlen)
		}
		if cap(wb) < wlen {
			wb = make([]byte, wlen)
		}
		if _, err := io.ReadFull(br, wb[:wlen]); err != nil {
			return nil, fmt.Errorf("embedding: reading word %d: %w", i, err)
		}
		for c := 0; c < dim; {
			k := min(dim-c, readChunk)
			if _, err := io.ReadFull(br, buf[:8*k]); err != nil {
				return nil, fmt.Errorf("embedding: reading vector %d[%d]: %w", i, c, err)
			}
			for j := 0; j < k; j++ {
				vecs = append(vecs, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:])))
			}
			c += k
		}
		words = append(words, string(wb[:wlen]))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, errors.New("embedding: trailing bytes after the last vector")
		}
		return nil, fmt.Errorf("embedding: reading past the last vector: %w", err)
	}
	return NewStore(words, dim, vecs)
}
