package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"
	"testing"

	"leapme/internal/features"
	"leapme/internal/mathx"
)

// trainedTestMatcher returns a trained matcher over the shared store plus
// the labeled pairs it was trained on.
func trainedScorerMatcher(t *testing.T, seed int64) (*Matcher, []LabeledPair) {
	t.Helper()
	d := smallDataset(t, seed)
	store := getStore(t)
	m, err := NewMatcher(store, DefaultOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ComputeFeatures(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(seed))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	return m, pairs
}

func TestScorerBitIdentical(t *testing.T) {
	m, pairs := trainedScorerMatcher(t, 31)
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range pairs[:10] {
		want, err := m.Score(lp.A, lp.B)
		if err != nil {
			t.Fatal(err)
		}
		pa, _ := m.prop(lp.A)
		pb, _ := m.prop(lp.B)
		got, err := sc.Score(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Score {
			t.Fatalf("scorer diverges from matcher on %v × %v: %v vs %v", lp.A, lp.B, got, want.Score)
		}
		if sc.Match(got) != want.Match {
			t.Fatalf("match decision diverges on %v × %v", lp.A, lp.B)
		}
	}
}

func TestScorerFeaturizeMatchesComputeFeatures(t *testing.T) {
	d := smallDataset(t, 32)
	store := getStore(t)
	m, err := NewMatcher(store, DefaultOptions(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ComputeFeatures(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(32))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	values := d.InstancesByProperty()
	for _, p := range d.Props[:5] {
		want, _ := m.prop(p.Key())
		got := sc.Featurize(p.Name, values[p.Key()])
		if len(got.Vec) != len(want.Vec) {
			t.Fatalf("featurize dim %d vs %d", len(got.Vec), len(want.Vec))
		}
		for i := range got.Vec {
			if got.Vec[i] != want.Vec[i] {
				t.Fatalf("featurize diverges at %d for %s", i, p.Key())
			}
		}
	}
}

func TestScorerBatchAndClone(t *testing.T) {
	m, pairs := trainedScorerMatcher(t, 33)
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	as := make([]*features.Prop, 0, n)
	bs := make([]*features.Prop, 0, n)
	want := make([]float64, 0, n)
	for _, lp := range pairs[:n] {
		pa, _ := m.prop(lp.A)
		pb, _ := m.prop(lp.B)
		as, bs = append(as, pa), append(bs, pb)
		sp, err := m.Score(lp.A, lp.B)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sp.Score)
	}
	dst := make([]float64, n)
	if err := sc.ScoreBatch(dst, as, bs); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("batch score %d: %v vs %v", i, dst[i], want[i])
		}
	}

	// Clones score concurrently and agree bit-for-bit (run under -race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := sc.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				if err := c.ScoreBatch(got, as, bs); err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("clone diverges at %d: %v vs %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if err := sc.ScoreBatch(dst[:2], as, bs); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestScoreIsolated: a bad pair fails alone — every good pair of its
// batch keeps its one-pair score bit for bit — and a clean batch clears
// the errors a failed one left behind.
func TestScoreIsolated(t *testing.T) {
	m, pairs := trainedScorerMatcher(t, 35)
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	const n = 11
	as := make([]*features.Prop, n)
	bs := make([]*features.Prop, n)
	want := make([]float64, n)
	for i, lp := range pairs[:n] {
		as[i], _ = m.prop(lp.A)
		bs[i], _ = m.prop(lp.B)
		if want[i], err = sc.Score(as[i], bs[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(dst []float64, errs []error, bad map[int]bool) {
		t.Helper()
		for i := range dst {
			if bad[i] {
				if errs[i] == nil || dst[i] != 0 {
					t.Errorf("bad pair %d: score %v, err %v; want 0 and an error", i, dst[i], errs[i])
				}
				continue
			}
			if errs[i] != nil || math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Errorf("good pair %d: score %x, err %v; want %x", i, math.Float64bits(dst[i]), errs[i], math.Float64bits(want[i]))
			}
		}
	}
	dst, errs := make([]float64, n), make([]error, n)
	// A truncated feature vector panics inside the pair vector; a nil
	// side is rejected with an error.
	corrupt := *as[3]
	corrupt.Vec = corrupt.Vec[:1]
	good3 := as[3]
	as[3], bs[8] = &corrupt, nil
	sc.ScoreIsolated(dst, errs, as, bs)
	check(dst, errs, map[int]bool{3: true, 8: true})

	as[3], bs[8] = good3, bs[7]
	if want[8], err = sc.Score(as[8], bs[8]); err != nil {
		t.Fatal(err)
	}
	sc.ScoreIsolated(dst, errs, as, bs)
	check(dst, errs, nil)
}

func TestScorerSurvivesSourceRetrain(t *testing.T) {
	m, pairs := trainedScorerMatcher(t, 34)
	pa, _ := m.prop(pairs[0].A)
	pb, _ := m.prop(pairs[0].B)
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	before, err := sc.Score(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	// Retrain the source matcher with a different seed: the snapshot must
	// keep returning the old model's scores (hot-swap safety).
	m.opts.Seed = 999
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	after, err := sc.Score(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("snapshot changed under retrain: %v vs %v", before, after)
	}
}

func TestNewScorerUntrained(t *testing.T) {
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	if _, err := m.NewScorer(); err == nil {
		t.Error("NewScorer on untrained matcher accepted")
	}
}

func TestLoadInfoRoundTrip(t *testing.T) {
	m, _ := trainedScorerMatcher(t, 35)
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := LoadInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != modelVersion {
		t.Errorf("format version %d, want %d", info.FormatVersion, modelVersion)
	}
	if !info.HasDescriptor || info.Features != m.opts.Features {
		t.Errorf("descriptor %v/%v, want %v", info.HasDescriptor, info.Features, m.opts.Features)
	}
	if info.EmbeddingDim != m.ex.EmbeddingDim() {
		t.Errorf("embedding dim %d, want %d", info.EmbeddingDim, m.ex.EmbeddingDim())
	}
	if info.InDim != m.PairDim() {
		t.Errorf("in dim %d, want %d", info.InDim, m.PairDim())
	}
	if len(info.Hidden) != 2 || info.Hidden[0] != 128 || info.Hidden[1] != 64 {
		t.Errorf("hidden %v, want [128 64]", info.Hidden)
	}
	if info.OutDim != 2 || !info.Standardized {
		t.Errorf("out=%d standardized=%v", info.OutDim, info.Standardized)
	}
	if info.CRC == 0 || info.PayloadBytes == 0 {
		t.Errorf("missing fingerprint: %+v", info)
	}
	if info.String() == "" {
		t.Error("empty String()")
	}
}

func TestLoadInfoGarbage(t *testing.T) {
	if _, err := LoadInfo(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadInfoFile("/nonexistent/model.bin"); err == nil {
		t.Error("missing file accepted")
	}
}

// writeModelV2 re-serialises a current model in the legacy v2 layout
// (no descriptor) so the back-compat path stays covered without fixture
// files.
func writeModelV2(m *Matcher) []byte {
	var payload bytes.Buffer
	buf := make([]byte, 8)
	n := len(m.featMean)
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	payload.Write(buf[:4])
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(m.featMean[i]))
		payload.Write(buf)
		binary.LittleEndian.PutUint64(buf, math.Float64bits(m.featInvStd[i]))
		payload.Write(buf)
	}
	m.net.WriteTo(&payload)

	var out bytes.Buffer
	out.WriteString(matcherMagic)
	binary.LittleEndian.PutUint32(buf[:4], 2)
	out.Write(buf[:4])
	binary.LittleEndian.PutUint64(buf, uint64(payload.Len()))
	out.Write(buf)
	out.Write(payload.Bytes())
	binary.LittleEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(payload.Bytes()))
	out.Write(buf[:4])
	return out.Bytes()
}

func TestReadModelV2Compat(t *testing.T) {
	m, pairs := trainedScorerMatcher(t, 36)
	v2 := writeModelV2(m)

	info, err := LoadInfo(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != 2 || info.HasDescriptor {
		t.Errorf("v2 info misread: %+v", info)
	}
	if info.InDim != m.PairDim() {
		t.Errorf("v2 in dim %d, want %d", info.InDim, m.PairDim())
	}

	m2, _ := NewMatcher(getStore(t), DefaultOptions(1))
	d := smallDataset(t, 36)
	if err := m2.ComputeFeatures(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if err := m2.ReadModel(bytes.NewReader(v2)); err != nil {
		t.Fatalf("v2 model rejected: %v", err)
	}
	s1, err := m.Score(pairs[0].A, pairs[0].B)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Score(pairs[0].A, pairs[0].B)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Score != s2.Score {
		t.Errorf("v2 round trip diverges: %v vs %v", s1.Score, s2.Score)
	}
}

func TestReadModelFeatureMismatch(t *testing.T) {
	m, _ := trainedScorerMatcher(t, 37)
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.Features.Instances = false
	m2, _ := NewMatcher(getStore(t), opts)
	err := m2.ReadModel(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("feature-config mismatch accepted")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("features")) {
		t.Errorf("error %q does not mention features", err)
	}
}

// TestScorerZeroAllocs pins the warm library scoring paths — Score,
// ScoreBatch and the ScoreIsolated loop classification and serving
// share — at zero heap allocations per call: the core half of the
// scorer's alloc gate (the serve package pins the batcher on top).
func TestScorerZeroAllocs(t *testing.T) {
	m, pairs := trainedScorerMatcher(t, 53)
	n := 32
	as := make([]*features.Prop, 0, n)
	bs := make([]*features.Prop, 0, n)
	for i := 0; i < n; i++ {
		lp := pairs[i%len(pairs)]
		pa, _ := m.prop(lp.A)
		pb, _ := m.prop(lp.B)
		as, bs = append(as, pa), append(bs, pb)
	}
	dst := make([]float64, n)
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	// Warm: first calls grow the batch arenas and the edit scratch to
	// the longest names in the batch; after that the path must stay off
	// the heap entirely.
	if _, err := sc.Score(as[0], bs[0]); err != nil {
		t.Fatal(err)
	}
	if err := sc.ScoreBatch(dst, as, bs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sc.Score(as[0], bs[0]); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Score allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := sc.ScoreBatch(dst, as, bs); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("warm ScoreBatch allocates %v times per %d-pair batch, want 0", allocs, n)
	}
	errs := make([]error, n)
	if allocs := testing.AllocsPerRun(50, func() { sc.ScoreIsolated(dst, errs, as, bs) }); allocs != 0 {
		t.Errorf("warm ScoreIsolated allocates %v times per %d-pair batch, want 0", allocs, n)
	}
}
