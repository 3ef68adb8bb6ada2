package leapme

// Benchmarks, one per paper artefact plus component microbenches. The
// Table II and experiment benches run a reduced single-split protocol so
// `go test -bench=.` finishes in minutes; `cmd/benchtab` regenerates the
// full tables with the multi-run protocol. Quality metrics are attached
// to the benchmark output via b.ReportMetric (P/R/F1 as {p,r,f1}), so the
// bench run doubles as a quick shape check against the paper.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"leapme/internal/baselines"
	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/embedding"
	"leapme/internal/eval"
	"leapme/internal/features"
	"leapme/internal/text"
)

var (
	benchOnce  sync.Once
	benchStore *embedding.Store
	benchData  map[string]*dataset.Dataset
)

func benchSetup(tb testing.TB) (*embedding.Store, map[string]*dataset.Dataset) {
	if tb != nil {
		tb.Helper()
	}
	benchOnce.Do(func() {
		corpus := domain.Corpus(
			[]*domain.Category{domain.Cameras(), domain.Headphones(), domain.Phones(), domain.TVs()},
			domain.CorpusConfig{SentencesPerProp: 60, Seed: 1})
		cfg := embedding.DefaultGloVeConfig()
		cfg.Dim = 32
		cfg.Epochs = 20
		s, err := embedding.TrainGloVe(corpus, cfg)
		if err != nil {
			panic(err)
		}
		benchStore = s
		benchData = map[string]*dataset.Dataset{}
		for _, gc := range []dataset.GenConfig{
			dataset.Lite(dataset.CamerasConfig(1)),
			dataset.Lite(dataset.HeadphonesConfig(1)),
			dataset.Lite(dataset.PhonesConfig(1)),
			dataset.Lite(dataset.TVsConfig(1)),
		} {
			d, err := dataset.Generate(gc)
			if err != nil {
				panic(err)
			}
			benchData[d.Name] = d
		}
	})
	return benchStore, benchData
}

func benchHarness(store *embedding.Store) *eval.Harness {
	h := eval.NewHarness(store, 1)
	h.Runs = 1
	return h
}

func reportPRF(b *testing.B, m eval.PRF) {
	b.ReportMetric(m.P, "p")
	b.ReportMetric(m.R, "r")
	b.ReportMetric(m.F1, "f1")
}

// --- Table II: LEAPME per dataset at 80% training (full features) ---

func benchTable2LEAPME(b *testing.B, ds string) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	var m eval.PRF
	var err error
	for i := 0; i < b.N; i++ {
		m, err = h.EvalLEAPME(data[ds], features.FullConfig(), 0.8)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPRF(b, m)
}

func BenchmarkTable2_Cameras_LEAPME(b *testing.B)    { benchTable2LEAPME(b, "cameras-lite") }
func BenchmarkTable2_Headphones_LEAPME(b *testing.B) { benchTable2LEAPME(b, "headphones-lite") }
func BenchmarkTable2_Phones_LEAPME(b *testing.B)     { benchTable2LEAPME(b, "phones-lite") }
func BenchmarkTable2_TVs_LEAPME(b *testing.B)        { benchTable2LEAPME(b, "tvs-lite") }

// --- Table II: LEAPME feature-kind variants on cameras ---

func benchTable2Variant(b *testing.B, fc features.Config) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	var m eval.PRF
	var err error
	for i := 0; i < b.N; i++ {
		m, err = h.EvalLEAPME(data["cameras-lite"], fc, 0.8)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPRF(b, m)
}

func BenchmarkTable2_Cameras_LEAPME_Emb(b *testing.B) {
	benchTable2Variant(b, features.FullConfig().EmbOnly())
}

func BenchmarkTable2_Cameras_LEAPME_NoEmb(b *testing.B) {
	benchTable2Variant(b, features.FullConfig().NonEmbOnly())
}

func BenchmarkTable2_Cameras_NamesOnly(b *testing.B) {
	benchTable2Variant(b, features.Config{Names: true, Embeddings: true, NonEmbeddings: true})
}

func BenchmarkTable2_Cameras_InstancesOnly(b *testing.B) {
	benchTable2Variant(b, features.Config{Instances: true, Embeddings: true, NonEmbeddings: true})
}

// --- Table II: the five baselines on cameras ---

func benchTable2Baseline(b *testing.B, mk func() baselines.Matcher) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	var m eval.PRF
	var err error
	for i := 0; i < b.N; i++ {
		m, err = h.EvalBaseline(data["cameras-lite"], mk, 0.8)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPRF(b, m)
}

func BenchmarkTable2_Cameras_Nezhadi(b *testing.B) {
	benchTable2Baseline(b, func() baselines.Matcher { return baselines.NewNezhadi() })
}

func BenchmarkTable2_Cameras_AML(b *testing.B) {
	benchTable2Baseline(b, func() baselines.Matcher { return baselines.NewAML() })
}

func BenchmarkTable2_Cameras_FCAMap(b *testing.B) {
	benchTable2Baseline(b, func() baselines.Matcher { return baselines.NewFCAMap() })
}

func BenchmarkTable2_Cameras_SemProp(b *testing.B) {
	store, _ := benchSetup(b)
	benchTable2Baseline(b, func() baselines.Matcher { return baselines.NewSemProp(store) })
}

func BenchmarkTable2_Cameras_LSH(b *testing.B) {
	benchTable2Baseline(b, func() baselines.Matcher { return baselines.NewLSH() })
}

// --- A1: feature-configuration ablation (all 9 configs, cameras) ---

func BenchmarkA1_Ablation_Cameras(b *testing.B) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	for i := 0; i < b.N; i++ {
		if _, err := h.Ablation(data["cameras-lite"], 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A2: training-fraction sweep (cameras) ---

func BenchmarkA2_FractionSweep_Cameras(b *testing.B) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	for i := 0; i < b.N; i++ {
		if _, err := h.FractionSweep(data["cameras-lite"], []float64{0.2, 0.5, 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A3: transfer learning (headphones → phones) ---

func BenchmarkA3_Transfer(b *testing.B) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	for i := 0; i < b.N; i++ {
		if _, err := h.Transfer([]*dataset.Dataset{
			data["headphones-lite"], data["phones-lite"],
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A4: clustering from the similarity graph (cameras) ---

func BenchmarkA4_Clusterings_Cameras(b *testing.B) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	for i := 0; i < b.N; i++ {
		if _, err := h.Clusterings(data["cameras-lite"]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Design-choice ablations (DESIGN.md §5) ---

// BenchmarkAblation_NoStandardize measures LEAPME without pair-feature
// z-scoring: expect a noticeably lower F1 under the paper's fixed LR
// schedule.
func BenchmarkAblation_NoStandardize(b *testing.B) {
	store, data := benchSetup(b)
	h := benchHarness(store)
	h.Options.NoStandardize = true
	var m eval.PRF
	var err error
	for i := 0; i < b.N; i++ {
		m, err = h.EvalLEAPME(data["cameras-lite"], features.FullConfig(), 0.8)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPRF(b, m)
}

// BenchmarkAblation_RawGloVeNorms serves unnormalised GloVe vectors:
// expect the embedding features to degrade (frequency-dependent norms
// distort difference features).
func BenchmarkAblation_RawGloVeNorms(b *testing.B) {
	_, data := benchSetup(b)
	corpus := domain.Corpus(
		[]*domain.Category{domain.Cameras(), domain.Headphones(), domain.Phones(), domain.TVs()},
		domain.CorpusConfig{SentencesPerProp: 60, Seed: 1})
	cfg := embedding.DefaultGloVeConfig()
	cfg.Dim = 32
	cfg.Epochs = 20
	cfg.NoNormalize = true
	raw, err := embedding.TrainGloVe(corpus, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := benchHarness(raw)
	var m eval.PRF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = h.EvalLEAPME(data["cameras-lite"], features.FullConfig(), 0.8)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPRF(b, m)
}

// --- Component microbenches ---

// BenchmarkGloVeTraining trains the store the repository benchmark and
// `benchtab -bench train` train: the four-category corpus at 120
// sentences per property, DefaultGloVeConfig with Dim 32 and Seed 1 (the
// configuration TestGloVeGoldenBytes pins).
func BenchmarkGloVeTraining(b *testing.B) {
	corpus := domain.Corpus(
		[]*domain.Category{domain.Cameras(), domain.Headphones(), domain.Phones(), domain.TVs()},
		domain.CorpusConfig{SentencesPerProp: 120, Seed: 1})
	cfg := embedding.DefaultGloVeConfig()
	cfg.Dim = 32
	cfg.Seed = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embedding.TrainGloVe(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairVector builds the pair vector of every cross-source pair
// of cameras-lite through Pairer.PairVectorScratch — the one path
// training, Explain, classification and serving share — and reports the
// cost per pair.
func BenchmarkPairVector(b *testing.B) {
	store, data := benchSetup(b)
	d := data["cameras-lite"]
	ex := features.NewExtractor(store)
	pairer, err := features.NewPairer(ex, features.FullConfig())
	if err != nil {
		b.Fatal(err)
	}
	values := d.InstancesByProperty()
	props := map[dataset.Key]*features.Prop{}
	for _, p := range d.Props {
		props[p.Key()] = ex.PropertyFeatures(p.Name, values[p.Key()])
	}
	var as, bs []*features.Prop
	dataset.CrossSourcePairs(d.Props, func(x, y dataset.Property) bool {
		as = append(as, props[x.Key()])
		bs = append(bs, props[y.Key()])
		return true
	})
	dst := make([]float64, pairer.Dim())
	var es text.EditScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range as {
			pairer.PairVectorScratch(dst, as[k], bs[k], &es)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(as)), "ns/pair")
}

func BenchmarkMatchThroughput(b *testing.B) {
	store, data := benchSetup(b)
	d := data["headphones-lite"]
	m, err := core.NewMatcher(store, core.DefaultOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	m.ComputeFeatures(context.Background(), d)
	train := map[string]bool{}
	for i, s := range d.Sources {
		if i < len(d.Sources)-1 {
			train[s] = true
		}
	}
	pairs := core.TrainingPairs(d.PropsOfSources(train), 2, rand.New(rand.NewSource(1)))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	scored := 0
	for i := 0; i < b.N; i++ {
		if err := m.MatchAll(context.Background(), d.Props, func(core.ScoredPair) { scored++ }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(scored)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkBlocking(b *testing.B) {
	store, data := benchSetup(b)
	d := data["cameras-lite"]
	blk := UnionBlockers(NewTokenBlocker(), NewEmbeddingBlocker(store))
	var q BlockingQuality
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := blk.Candidates(d.Props)
		q = MeasureBlocking(cands, d.Props)
	}
	b.ReportMetric(q.PairCompleteness, "completeness")
	b.ReportMetric(q.ReductionRatio, "reduction")
}

func BenchmarkDatasetGeneration(b *testing.B) {
	cfg := dataset.Lite(dataset.HeadphonesConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
