package core

import (
	"context"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/mathx"
	"leapme/internal/nn"
)

// testStore trains a tiny GloVe store on the cameras domain corpus, shared
// across tests (training takes ~100ms).
var sharedStore *embedding.Store

func getStore(t *testing.T) *embedding.Store {
	t.Helper()
	if sharedStore != nil {
		return sharedStore
	}
	corpus := domain.Corpus([]*domain.Category{domain.Cameras()},
		domain.CorpusConfig{SentencesPerProp: 60, Seed: 1})
	cfg := embedding.DefaultGloVeConfig()
	cfg.Dim = 32
	cfg.Epochs = 25
	s, err := embedding.TrainGloVe(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharedStore = s
	return s
}

func smallDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name:           "cam-test",
		Category:       domain.Cameras(),
		NumSources:     6,
		SharedPresence: 0.8,
		CanonicalBias:  0.55,
		SplitProb:      0.05,
		NoiseProps:     8,
		MinEntities:    10,
		MaxEntities:    15,
		MissingRate:    0.3,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewMatcherDefaults(t *testing.T) {
	m, err := NewMatcher(getStore(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := m.Options()
	if !o.Features.Valid() || o.BatchSize != 32 || o.Threshold != 0.5 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if len(o.Hidden) != 2 || o.Hidden[0] != 128 || o.Hidden[1] != 64 {
		t.Errorf("hidden defaults = %v", o.Hidden)
	}
}

func TestNewMatcherNilStore(t *testing.T) {
	if _, err := NewMatcher(nil, Options{}); err == nil {
		t.Error("nil store accepted")
	}
}

func TestComputeFeatures(t *testing.T) {
	d := smallDataset(t, 1)
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	m.ComputeFeatures(context.Background(), d)
	if m.NumProperties() != len(d.Props) {
		t.Errorf("computed %d property features, want %d", m.NumProperties(), len(d.Props))
	}
}

func TestTrainRequiresFeatures(t *testing.T) {
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	pairs := []LabeledPair{{
		A:     dataset.Key{Source: "s", Name: "x"},
		B:     dataset.Key{Source: "t", Name: "y"},
		Match: true,
	}}
	if _, err := m.Train(context.Background(), pairs); err == nil {
		t.Error("training without computed features accepted")
	}
	if _, err := m.Train(context.Background(), nil); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestScoreRequiresTraining(t *testing.T) {
	d := smallDataset(t, 1)
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	m.ComputeFeatures(context.Background(), d)
	if _, err := m.Score(d.Props[0].Key(), d.Props[1].Key()); err == nil {
		t.Error("scoring before training accepted")
	}
	if err := m.MatchAll(context.Background(), d.Props, func(ScoredPair) {}); err == nil {
		t.Error("MatchAll before training accepted")
	}
}

func TestTrainingPairsRegime(t *testing.T) {
	d := smallDataset(t, 2)
	rng := mathx.NewRand(1)
	pairs := TrainingPairs(d.Props, 2, rng)
	var pos, neg int
	for _, p := range pairs {
		if p.Match {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 {
		t.Fatal("no positive pairs")
	}
	if neg != 2*pos {
		t.Errorf("neg = %d, want 2×pos = %d", neg, 2*pos)
	}
	// No same-source pairs, no duplicate pairs.
	seen := map[dataset.Pair]bool{}
	for _, p := range pairs {
		if p.A.Source == p.B.Source {
			t.Errorf("same-source pair %v", p)
		}
		cp := dataset.Pair{A: p.A, B: p.B}.Canonical()
		if seen[cp] {
			t.Errorf("duplicate pair %v", cp)
		}
		seen[cp] = true
	}
}

func TestTrainingPairsDefaultRatio(t *testing.T) {
	d := smallDataset(t, 3)
	pairs := TrainingPairs(d.Props, -1, mathx.NewRand(2))
	var pos, neg int
	for _, p := range pairs {
		if p.Match {
			pos++
		} else {
			neg++
		}
	}
	if neg != 2*pos {
		t.Errorf("default ratio: neg=%d pos=%d", neg, pos)
	}
}

// TestEndToEndMatching is the package's core check: LEAPME trained on
// three sources must find the cross-source matches of the remaining two
// sources far better than chance.
func TestEndToEndMatching(t *testing.T) {
	d := smallDataset(t, 4)
	store := getStore(t)

	opts := DefaultOptions(7)
	m, err := NewMatcher(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.ComputeFeatures(context.Background(), d)

	trainSources := map[string]bool{"source00": true, "source01": true, "source02": true, "source03": true}
	testSources := map[string]bool{"source04": true, "source05": true}
	trainProps := d.PropsOfSources(trainSources)
	testProps := d.PropsOfSources(testSources)

	pairs := TrainingPairs(trainProps, 2, mathx.NewRand(7))
	if len(pairs) < 30 {
		t.Fatalf("too few training pairs: %d", len(pairs))
	}
	loss, err := m.Train(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.5 {
		t.Errorf("training loss %v suspiciously high", loss)
	}
	if !m.Trained() {
		t.Fatal("Trained() false after Train")
	}

	// Evaluate on the held-out sources.
	truth := map[dataset.Pair]bool{}
	for _, p := range dataset.MatchingPairs(testProps) {
		truth[p] = true
	}
	var tp, fp, fn int
	predicted := map[dataset.Pair]bool{}
	err = m.MatchAll(context.Background(), testProps, func(sp ScoredPair) {
		if sp.Score < 0 || sp.Score > 1 {
			t.Fatalf("score %v outside [0,1]", sp.Score)
		}
		if sp.Match {
			predicted[dataset.Pair{A: sp.A, B: sp.B}.Canonical()] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range predicted {
		if truth[p] {
			tp++
		} else {
			fp++
		}
	}
	for p := range truth {
		if !predicted[p] {
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("no true positives at all")
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	f1 := 2 * prec * rec / (prec + rec)
	t.Logf("held-out P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)", prec, rec, f1, tp, fp, fn)
	if f1 < 0.5 {
		t.Errorf("end-to-end F1 = %.3f, want ≥ 0.5", f1)
	}
}

func TestMatchesFiltersByThreshold(t *testing.T) {
	d := smallDataset(t, 5)
	opts := DefaultOptions(1)
	opts.Schedule = []nn.Phase{{Epochs: 5, LR: 1e-3}}
	m, _ := NewMatcher(getStore(t), opts)
	m.ComputeFeatures(context.Background(), d)
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(1))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	matches, err := m.Matches(context.Background(), d.Props)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range matches {
		if !sp.Match || sp.Score < 0.5 {
			t.Errorf("non-match in Matches output: %+v", sp)
		}
	}
}

func TestAdoptFeatures(t *testing.T) {
	d := smallDataset(t, 6)
	store := getStore(t)
	a, _ := NewMatcher(store, DefaultOptions(1))
	a.ComputeFeatures(context.Background(), d)
	b, _ := NewMatcher(store, DefaultOptions(2))
	if err := b.AdoptFeatures(a); err != nil {
		t.Fatal(err)
	}
	if b.NumProperties() != a.NumProperties() {
		t.Errorf("adopted %d of %d properties", b.NumProperties(), a.NumProperties())
	}
	if err := b.AdoptFeatures(nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestMatchCandidates(t *testing.T) {
	d := smallDataset(t, 7)
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	m.ComputeFeatures(context.Background(), d)
	cand := []dataset.Pair{{A: d.Props[0].Key(), B: d.Props[40].Key()}}
	if err := m.MatchCandidates(context.Background(), cand, func(ScoredPair) {}); err == nil {
		t.Error("untrained MatchCandidates accepted")
	}
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(1))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	var got []ScoredPair
	if err := m.MatchCandidates(context.Background(), cand, func(sp ScoredPair) { got = append(got, sp) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("scored %d candidates", len(got))
	}
	// Same score as the single-pair Score API.
	sp, err := m.Score(cand[0].A, cand[0].B)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Score != got[0].Score {
		t.Errorf("MatchCandidates %v != Score %v", got[0].Score, sp.Score)
	}
	// Unknown property errors.
	bad := []dataset.Pair{{A: dataset.Key{Source: "x", Name: "y"}, B: d.Props[0].Key()}}
	if err := m.MatchCandidates(context.Background(), bad, func(ScoredPair) {}); err == nil {
		t.Error("unknown candidate accepted")
	}
}

func TestFeatureConfigsProduceDifferentDims(t *testing.T) {
	store := getStore(t)
	dims := map[int]bool{}
	for _, cfg := range features.AllConfigs() {
		opts := DefaultOptions(1)
		opts.Features = cfg
		m, err := NewMatcher(store, opts)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		dims[m.PairDim()] = true
	}
	if len(dims) < 4 {
		t.Errorf("only %d distinct pair dims across 9 configs", len(dims))
	}
}
