package core

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"
)

// allocLimit is the most one model load may allocate for an n-byte
// file: the payload copy, the decoded weight slabs as they grow and the
// scorer's scratch, each a small multiple of the input.
func allocLimit(n int) uint64 { return 64*uint64(n) + 1<<20 }

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadModel feeds mutated model payloads, re-sealed with a correct
// length and CRC as format v2 or v3, to LoadInfo and ReadModel. Neither
// may panic or allocate beyond allocLimit of the file size. They must
// agree: ReadModel on the goldenMatcher configuration accepts exactly
// the files LoadInfo accepts whose descriptor and input dimension fit
// that configuration. A set quantisation bit yields ErrQuantizedModel
// from both, a failed load leaves the matcher untouched, and an
// accepted file re-saves to exactly its input bytes.
func FuzzReadModel(f *testing.F) {
	for _, seed := range []struct {
		file string
		v2   bool
	}{{"model_v2.golden", true}, {"model_v3.golden", false}, {"model_v3q.golden", false}} {
		data, err := os.ReadFile(goldenPath(seed.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.v2, modelPayload(f, data))
	}
	m := goldenMatcher(f)
	f.Fuzz(func(t *testing.T, v2 bool, payload []byte) {
		version := uint32(modelVersion)
		if v2 {
			version = 2
		}
		file := rebuildEnvelope(payload, version)
		limit := allocLimit(len(file))

		var info ModelInfo
		var infoErr error
		if got := allocated(func() { info, infoErr = LoadInfo(bytes.NewReader(file)) }); got > limit {
			t.Fatalf("LoadInfo allocated %d bytes for a %d-byte file, limit %d", got, len(file), limit)
		}
		net := m.net
		var readErr error
		if got := allocated(func() { readErr = m.ReadModel(bytes.NewReader(file)) }); got > limit {
			t.Fatalf("ReadModel allocated %d bytes for a %d-byte file, limit %d", got, len(file), limit)
		}

		if !v2 && len(payload) >= 4 && payload[0]&featBitQuantized != 0 {
			if !errors.Is(infoErr, ErrQuantizedModel) || !errors.Is(readErr, ErrQuantizedModel) {
				t.Fatalf("quant bit set: LoadInfo error %v, ReadModel error %v, want ErrQuantizedModel", infoErr, readErr)
			}
		}
		fits := infoErr == nil && info.InDim == m.PairDim() &&
			(!info.HasDescriptor || info.Features == m.opts.Features && info.EmbeddingDim == m.ex.EmbeddingDim())
		if fits != (readErr == nil) {
			t.Fatalf("loaders disagree: LoadInfo %v (%v), ReadModel error %v", info, infoErr, readErr)
		}
		if readErr != nil {
			if m.net != net {
				t.Fatal("matcher modified by a failed load")
			}
			return
		}

		resaved := v2Bytes(t, m)
		if !v2 {
			var buf bytes.Buffer
			if err := m.WriteModel(&buf); err != nil {
				t.Fatal(err)
			}
			resaved = buf.Bytes()
		}
		if !bytes.Equal(resaved, file) {
			t.Fatalf("accepted model re-saves to different bytes (%d vs %d)", len(resaved), len(file))
		}
	})
}
