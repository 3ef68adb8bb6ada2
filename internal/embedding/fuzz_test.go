package embedding

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// allocLimit is the most one store load may allocate for an n-byte
// file: the decoded words and the vector slab as they grow and the
// store's word index, each a small multiple of the input. It is the
// bound the model loader's fuzzer holds core.ReadModel to.
func allocLimit(n int) uint64 { return 64*uint64(n) + 1<<20 }

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// storeHeader returns the start of a store file: the magic, the vector
// dimension and the claimed word count.
func storeHeader(dim, n uint32) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(storeMagic), dim)
	return binary.LittleEndian.AppendUint32(b, n)
}

// overclaimingStores are short files whose headers claim far more than
// they hold.
var overclaimingStores = []struct {
	name string
	file []byte
}{
	// 21 bytes: 2^24 words claimed, one 1-byte word, then end of input.
	{"count 2^24", append(storeHeader(1, 1<<24), 1, 0, 0, 0, 'a')},
	// One word whose 2^20-float vector never arrives.
	{"dim 2^20", append(storeHeader(1<<20, 1), 1, 0, 0, 0, 'a')},
}

// TestReadStoreAllocatesAsBytesArrive: the header's word count and
// vector dimension reserve nothing the payload does not back, so a short
// file claiming 2^24 words or a 2^20-float vector fails at end of input
// within the fuzzer's allocation bound.
func TestReadStoreAllocatesAsBytesArrive(t *testing.T) {
	for _, tc := range overclaimingStores {
		var err error
		got := allocated(func() { _, err = ReadStore(bytes.NewReader(tc.file)) })
		if err == nil {
			t.Errorf("%s: %d-byte file accepted", tc.name, len(tc.file))
		}
		if limit := allocLimit(len(tc.file)); got > limit {
			t.Errorf("%s: allocated %d bytes for a %d-byte file, limit %d", tc.name, got, len(tc.file), limit)
		}
	}
}

// FuzzReadStore feeds mutated store files to ReadStore, seeded with a
// small trained store and the over-claiming files above. ReadStore may
// not panic or allocate beyond allocLimit of the input size, and an
// accepted file must re-save to exactly its bytes.
func FuzzReadStore(f *testing.F) {
	cfg := DefaultGloVeConfig()
	cfg.Dim = 4
	cfg.Epochs = 2
	s, err := TrainGloVe(synonymCorpus(5, 3), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, tc := range overclaimingStores {
		f.Add(tc.file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Store
		var err error
		if n := allocated(func() { got, err = ReadStore(bytes.NewReader(data)) }); n > allocLimit(len(data)) {
			t.Fatalf("ReadStore allocated %d bytes for a %d-byte file, limit %d", n, len(data), allocLimit(len(data)))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted store re-saves to different bytes (%d vs %d)", out.Len(), len(data))
		}
	})
}
