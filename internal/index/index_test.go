package index

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/mathx"
)

// clusteredVecs generates groups of near-duplicate vectors: `groups`
// cluster centres, `per` noisy copies each. Near-duplicate retrieval is
// the regime property blocking lives in (synonymous names embed close),
// so recall is measured on planted neighbours, not on the weak neighbour
// structure of pure Gaussian noise.
func clusteredVecs(seed int64, groups, per, dim int, noise float64) [][]float64 {
	rng := mathx.NewRand(seed)
	out := make([][]float64, 0, groups*per)
	centre := make([]float64, dim)
	for g := 0; g < groups; g++ {
		mathx.FillNormal(centre, 0, 1, rng)
		for p := 0; p < per; p++ {
			v := make([]float64, dim)
			mathx.FillNormal(v, 0, noise, rng)
			mathx.AddTo(v, v, centre)
			out = append(out, v)
		}
	}
	return out
}

// bruteTopK is the exact-oracle ranking the index approximates.
func bruteTopK(vecs [][]float64, q []float64, k int) []Candidate {
	nq := mathx.Normalized(q)
	normed := make([][]float64, len(vecs))
	for i, v := range vecs {
		normed[i] = mathx.Normalized(v)
	}
	ids := make([]int, len(vecs))
	for i := range ids {
		ids[i] = i
	}
	return rank(normed, nq, ids, k)
}

func overlap(a, b []Candidate) float64 {
	if len(b) == 0 {
		return 1
	}
	in := make(map[int]bool, len(a))
	for _, c := range a {
		in[c.ID] = true
	}
	hit := 0
	for _, c := range b {
		if in[c.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(b))
}

// testOpts is the build configuration the index tests share. The tests
// run as subtest "lsh", the name they had beside a second backend, so
// their IDs stay stable.
var testOpts = Options{Seed: 42}

// roundTrip serialises ix as a snapshot's index part and reads it back.
func roundTrip(t *testing.T, ix *Index) (*Index, []byte) {
	t.Helper()
	raw := indexPayload(ix)
	loaded, err := indexFromPayload(&binReader{r: bytes.NewReader(raw)})
	if err != nil {
		t.Fatalf("indexFromPayload: %v", err)
	}
	return loaded, raw
}

func TestQueryRecallOnClusters(t *testing.T) {
	vecs := clusteredVecs(7, 150, 8, 24, 0.15)
	t.Run("lsh", func(t *testing.T) {
		ix, err := Build(context.Background(), vecs, testOpts)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if ix.Len() != len(vecs) || ix.Dim() != 24 {
			t.Fatalf("Len/Dim = %d/%d, want %d/24", ix.Len(), ix.Dim(), len(vecs))
		}
		const k = 8
		var total float64
		queries := 100
		for qi := 0; qi < queries; qi++ {
			q := vecs[qi*11%len(vecs)]
			got := ix.Query(q, k)
			want := bruteTopK(vecs, q, k)
			total += overlap(got, want)
			for i := 1; i < len(got); i++ {
				if got[i].Sim > got[i-1].Sim {
					t.Fatalf("query %d results not sorted: %v", qi, got)
				}
			}
		}
		recall := total / float64(queries)
		if recall < 0.85 {
			t.Fatalf("recall@%d = %.3f, want >= 0.85", k, recall)
		}
		t.Logf("recall@%d = %.3f", k, recall)
	})
}

func TestBuildRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	if _, err := Build(ctx, nil, Options{}); err == nil {
		t.Fatal("Build accepted empty input")
	}
	if _, err := Build(ctx, [][]float64{{}}, Options{}); err == nil {
		t.Fatal("Build accepted zero-dimensional vectors")
	}
	if _, err := Build(ctx, [][]float64{{1, 2}, {1, 2, 3}}, Options{}); err == nil {
		t.Fatal("Build accepted mismatched dims")
	}
}

func TestQueryEdgeCases(t *testing.T) {
	vecs := clusteredVecs(3, 4, 3, 8, 0.1)
	vecs = append(vecs, make([]float64, 8)) // a fully-OOV zero vector
	t.Run("lsh", func(t *testing.T) {
		ix, err := Build(context.Background(), vecs, testOpts)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if got := ix.Query(vecs[0], 0); got != nil {
			t.Fatalf("k=0 returned %v", got)
		}
		if got := ix.Query(vecs[0][:3], 5); got != nil {
			t.Fatalf("dim-mismatched query returned %v", got)
		}
		if got := ix.Query(vecs[0], 10*len(vecs)); len(got) > len(vecs) {
			t.Fatalf("k>n returned %d > %d candidates", len(got), len(vecs))
		}
		// A zero-vector query must not panic or produce NaN sims.
		for _, c := range ix.Query(make([]float64, 8), 5) {
			if c.Sim != c.Sim {
				t.Fatalf("zero query produced NaN sim for id %d", c.ID)
			}
		}
	})
}

func TestSerializeRoundTrip(t *testing.T) {
	vecs := clusteredVecs(11, 40, 5, 16, 0.2)
	t.Run("lsh", func(t *testing.T) {
		ix, err := Build(context.Background(), vecs, testOpts)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		loaded, first := roundTrip(t, ix)
		if loaded.Len() != ix.Len() || loaded.Dim() != ix.Dim() {
			t.Fatalf("loaded index differs: %d/%d vs %d/%d", loaded.Len(), loaded.Dim(), ix.Len(), ix.Dim())
		}
		for qi := 0; qi < 20; qi++ {
			q := vecs[qi*7%len(vecs)]
			a, b := ix.Query(q, 6), loaded.Query(q, 6)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("query %d differs after round trip:\n  built:  %v\n  loaded: %v", qi, a, b)
			}
		}
		// Re-serialising the loaded index must reproduce the bytes.
		if !bytes.Equal(first, indexPayload(loaded)) {
			t.Fatal("serialisation is not a fixed point: bytes differ after load+save")
		}
	})
}

func TestReadRejectsCorruption(t *testing.T) {
	snap, err := BuildSnapshot(context.Background(), testStore(t, 8), snapshotTestProps(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	raw := buf.Bytes()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Fatal("ReadSnapshot accepted a bit-flipped payload")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corruption error does not mention the checksum: %v", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)-9])); err == nil {
		t.Fatal("ReadSnapshot accepted a truncated file")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("LEAPMEMD garbage"))); err == nil {
		t.Fatal("ReadSnapshot accepted a model-file magic")
	}
	payload := snapshotPayload(t, raw)
	if _, err := ReadSnapshot(bytes.NewReader(sealSnapshot(append(payload, 0)))); err == nil {
		t.Fatal("ReadSnapshot accepted a trailing byte after the index")
	}
	if _, err := ReadSnapshot(bytes.NewReader(sealSnapshot(relabel(snap, payload, backendCodeLSH)))); err != nil {
		t.Fatalf("re-sealed unchanged snapshot rejected: %v", err)
	}
	_, err = ReadSnapshot(bytes.NewReader(sealSnapshot(relabel(snap, payload, backendCodeHNSW))))
	if err == nil || !strings.Contains(err.Error(), "HNSW") || !strings.Contains(err.Error(), "leapme index") {
		t.Fatalf("HNSW snapshot error = %v, want one naming HNSW and leapme index", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(sealSnapshot(relabel(snap, payload, 9)))); err == nil {
		t.Fatal("ReadSnapshot accepted an unknown backend code")
	}
}

func testStore(t testing.TB, dim int) *embedding.Store {
	t.Helper()
	words := []string{
		"camera", "resolution", "zoom", "weight", "battery", "price",
		"sensor", "lens", "flash", "screen", "video", "audio",
	}
	rng := mathx.NewRand(99)
	vecs := make([]float64, len(words)*dim)
	for i := range words {
		mathx.FillNormal(vecs[i*dim:(i+1)*dim], 0, 1, rng)
	}
	st, err := embedding.NewStore(words, dim, vecs)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := testStore(t, 12)
	// The last property duplicates the first; it must collapse.
	props := snapshotTestProps()
	snap, err := BuildSnapshot(context.Background(), st, props, Options{Seed: 5})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	if snap.Len() != len(props)-1 {
		t.Fatalf("snapshot has %d keys, want %d (dup collapsed)", snap.Len(), len(props)-1)
	}
	id, ok := snap.Lookup(props[0].Key())
	if !ok || id != 0 {
		t.Fatalf("Lookup(first prop) = %d, %v", id, ok)
	}
	if _, ok := snap.Lookup(dataset.Key{Source: "nope", Name: "nothing"}); ok {
		t.Fatal("Lookup found an unindexed key")
	}
	nbrs := snap.Neighbors(0, 5)
	if len(nbrs) == 0 {
		t.Fatal("Neighbors returned nothing")
	}
	for _, c := range nbrs {
		if c.ID == 0 {
			t.Fatal("Neighbors returned the query property itself")
		}
	}

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if loaded.Len() != snap.Len() {
		t.Fatalf("loaded snapshot has %d keys, want %d", loaded.Len(), snap.Len())
	}
	for i, k := range snap.Keys {
		if loaded.Keys[i] != k {
			t.Fatalf("key %d differs after round trip: %v vs %v", i, loaded.Keys[i], k)
		}
	}
	if fmt.Sprint(loaded.Neighbors(0, 5)) != fmt.Sprint(nbrs) {
		t.Fatal("Neighbors differ after round trip")
	}
	var again bytes.Buffer
	if err := loaded.Write(&again); err != nil {
		t.Fatalf("re-Write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("snapshot load+save changed the bytes")
	}

	if _, err := BuildSnapshot(context.Background(), st, nil, Options{}); err == nil {
		t.Fatal("BuildSnapshot accepted zero properties")
	}
}
