// Package leapme is a from-scratch Go implementation of LEAPME
// (LEArning-based Property Matching with Embeddings, Ayala et al., ICDE
// 2021): a supervised, multi-source property matcher that classifies
// pairs of properties from different sources as matching or not, using a
// dense neural network over features computed from property names,
// property instance values, and — centrally — word embeddings of both.
//
// The module is self-contained and offline: it includes its own GloVe
// trainer, a product-domain ontology and corpus generator standing in
// for pre-trained Common Crawl GloVe, synthetic multi-source dataset
// generators reproducing the statistics of the paper's four evaluation
// datasets (DI2KG cameras, WDC headphones / phones / TVs), five baseline
// matchers (AML, FCA-Map, Nezhadi et al., SemProp, LSH), and an
// evaluation harness that regenerates the paper's Table II plus
// ablation, training-fraction, transfer-learning and clustering
// experiments.
//
// # Quick start
//
//	store, _ := leapme.TrainDomainEmbeddings(leapme.DefaultEmbeddingSpec())
//	data, _ := leapme.Generate(leapme.CamerasLite(1))
//	m, _ := leapme.NewMatcher(store, leapme.DefaultOptions(1))
//	ctx := context.Background()
//	m.ComputeFeatures(ctx, data)
//	pairs := leapme.TrainingPairs(data.PropsOfSources(trainSrc), 2, rng)
//	m.Train(ctx, pairs)
//	matches, _ := m.Matches(ctx, data.PropsOfSources(testSrc))
//
// The context cancels long pipeline stages cooperatively (within one
// property featurization, one pair scoring, or one training mini-batch);
// see README.md's "Failure modes & recovery" section for the full
// robustness model (panic isolation, divergence recovery, quarantine).
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package leapme

import (
	"math/rand"

	"leapme/internal/baselines"
	"leapme/internal/blocking"
	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/embedding"
	"leapme/internal/eval"
	"leapme/internal/features"
	"leapme/internal/graph"
	"leapme/internal/guard"
	"leapme/internal/nn"
	"leapme/internal/serve"
)

// Core matcher API (package core).
type (
	// Matcher is the LEAPME property matcher: compute features, train,
	// classify (Algorithm 1 of the paper).
	Matcher = core.Matcher
	// Options configures a Matcher; zero fields take the paper defaults.
	Options = core.Options
	// LabeledPair is a training example for Matcher.Train.
	LabeledPair = core.LabeledPair
	// ScoredPair is a classified pair with its similarity score.
	ScoredPair = core.ScoredPair
	// Explanation attributes a pair's score to feature groups
	// (Matcher.Explain).
	Explanation = core.Explanation
	// UnitReport accounts for isolated per-unit failures of the last
	// feature/match run (Matcher.LastReport).
	UnitReport = guard.Report
)

// Dataset model (package dataset).
type (
	// Dataset is a multi-source property-matching task.
	Dataset = dataset.Dataset
	// Property is one source-specific property with ground-truth Ref.
	Property = dataset.Property
	// Instance is a (source, entity, property, value) observation.
	Instance = dataset.Instance
	// Key identifies a property within a dataset.
	Key = dataset.Key
	// Pair is an unordered cross-source property pair.
	Pair = dataset.Pair
	// GenConfig parameterises the synthetic dataset generator.
	GenConfig = dataset.GenConfig
)

// Embeddings (package embedding).
type (
	// Store serves trained word vectors.
	Store = embedding.Store
	// GloVeConfig parameterises the GloVe trainer.
	GloVeConfig = embedding.GloVeConfig
)

// Feature configuration (package features).
type (
	// FeatureConfig selects feature groups (the paper's 9 configurations).
	FeatureConfig = features.Config
)

// Similarity graph and clustering (package graph).
type (
	// SimilarityGraph holds scored matches as a weighted graph.
	SimilarityGraph = graph.SimilarityGraph
	// Clustering is a partition of properties into equivalence clusters.
	Clustering = graph.Clustering
)

// Evaluation harness (package eval).
type (
	// Harness runs the paper's evaluation protocol.
	Harness = eval.Harness
	// PRF is a precision/recall/F1 triple.
	PRF = eval.PRF
	// Table2Config selects a slice of Table II to compute.
	Table2Config = eval.Table2Config
	// Table2Row is one Table II cell group.
	Table2Row = eval.Row
)

// Baselines (package baselines).
type (
	// BaselineMatcher is the interface all five baselines implement.
	BaselineMatcher = baselines.Matcher
	// BaselineInput bundles properties and instance values for baselines.
	BaselineInput = baselines.Input
	// BaselineMatch is one baseline prediction.
	BaselineMatch = baselines.Match
)

// Training schedule (package nn).
type (
	// Phase is one stage of the learning-rate schedule.
	Phase = nn.Phase
)

// Serving (package serve) and model introspection (package core).
type (
	// MatchServer is the matching-as-a-service HTTP server: model
	// registry with hot swap, micro-batching scorer, feature cache.
	MatchServer = serve.Server
	// ServeConfig configures a MatchServer.
	ServeConfig = serve.Config
	// ModelSource names a saved model file to serve.
	ModelSource = serve.ModelSource
	// ModelRegistry holds named model versions and the active pointer.
	ModelRegistry = serve.Registry
	// ModelInfo describes a saved model file (LoadModelInfo) without
	// instantiating a matcher.
	ModelInfo = core.ModelInfo
	// Scorer is an immutable scoring snapshot of a trained Matcher,
	// detached from later retraining (Matcher.NewScorer).
	Scorer = core.Scorer
)

// NewMatcher builds a LEAPME matcher over the given embedding store.
func NewMatcher(store *Store, opts Options) (*Matcher, error) {
	return core.NewMatcher(store, opts)
}

// DefaultOptions returns the paper's matcher configuration (hidden layers
// 128/64, batch 32, staged LR schedule, all features, threshold 0.5).
func DefaultOptions(seed int64) Options { return core.DefaultOptions(seed) }

// FullFeatures enables every Table I feature.
func FullFeatures() FeatureConfig { return features.FullConfig() }

// AllFeatureConfigs enumerates the paper's 9 feature configurations.
func AllFeatureConfigs() []FeatureConfig { return features.AllConfigs() }

// PaperSchedule returns the LR schedule of Section IV-D (10 epochs at
// 1e-3, 5 at 1e-4, 5 at 1e-5).
func PaperSchedule() []Phase { return nn.PaperSchedule() }

// NewMatchServer loads the configured models and starts the serving
// pipeline (see cmd/leapme-serve for the standalone binary).
func NewMatchServer(cfg ServeConfig) (*MatchServer, error) { return serve.New(cfg) }

// ParseModelList parses the -model flag syntax: "path" or
// "name=path,name=path,...".
func ParseModelList(s string) ([]ModelSource, error) { return serve.ParseModelList(s) }

// LoadModelInfo describes a model file saved by Matcher.WriteModel (or
// `leapme train`) without loading it into a matcher.
func LoadModelInfo(path string) (ModelInfo, error) { return core.LoadInfoFile(path) }

// TrainingPairs builds a labeled training set in the paper's regime:
// every cross-source ground-truth match among props is a positive, plus
// negRatio random negatives per positive (paper: 2).
func TrainingPairs(props []Property, negRatio int, rng *rand.Rand) []LabeledPair {
	return core.TrainingPairs(props, negRatio, rng)
}

// Generate samples a synthetic multi-source dataset.
func Generate(cfg GenConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// The four dataset presets reproduce the statistics the paper reports.
// The *Lite variants shrink them for fast experiments (see EXPERIMENTS.md
// for the fidelity discussion).

// Cameras returns the full DI2KG-shaped camera preset (24 sources).
func Cameras(seed int64) GenConfig { return dataset.CamerasConfig(seed) }

// Headphones returns the WDC-shaped headphones preset.
func Headphones(seed int64) GenConfig { return dataset.HeadphonesConfig(seed) }

// Phones returns the WDC-shaped phones preset.
func Phones(seed int64) GenConfig { return dataset.PhonesConfig(seed) }

// TVs returns the WDC-shaped TVs preset.
func TVs(seed int64) GenConfig { return dataset.TVsConfig(seed) }

// CamerasLite returns a shrunk camera preset for fast experiments.
func CamerasLite(seed int64) GenConfig { return dataset.Lite(dataset.CamerasConfig(seed)) }

// HeadphonesLite returns a shrunk headphones preset.
func HeadphonesLite(seed int64) GenConfig { return dataset.Lite(dataset.HeadphonesConfig(seed)) }

// PhonesLite returns a shrunk phones preset.
func PhonesLite(seed int64) GenConfig { return dataset.Lite(dataset.PhonesConfig(seed)) }

// TVsLite returns a shrunk TVs preset.
func TVsLite(seed int64) GenConfig { return dataset.Lite(dataset.TVsConfig(seed)) }

// FromInstances builds an unlabeled dataset from raw (source, entity,
// property, value) tuples — the entry point for matching your own data.
func FromInstances(name, category string, instances []Instance) (*Dataset, error) {
	return dataset.FromInstances(name, category, instances)
}

// EmbeddingSpec bundles corpus generation and GloVe training parameters
// for TrainDomainEmbeddings.
type EmbeddingSpec struct {
	// Categories to include in the corpus; nil means all four product
	// categories.
	Categories []string
	// SentencesPerProp controls corpus size (default 120).
	SentencesPerProp int
	// GloVe is the trainer configuration (default DefaultGloVeConfig with
	// Dim 50).
	GloVe GloVeConfig
	// Seed drives corpus sampling.
	Seed int64
}

// DefaultEmbeddingSpec trains 50-dimensional GloVe vectors on the full
// product-domain corpus.
func DefaultEmbeddingSpec() EmbeddingSpec {
	return EmbeddingSpec{
		SentencesPerProp: 120,
		GloVe:            embedding.DefaultGloVeConfig(),
		Seed:             1,
	}
}

// TrainDomainEmbeddings generates a product-domain corpus and trains a
// GloVe store on it — the repository's stand-in for the pre-trained
// Common Crawl GloVe vectors the paper uses (see DESIGN.md).
func TrainDomainEmbeddings(spec EmbeddingSpec) (*Store, error) {
	cats := spec.Categories
	if len(cats) == 0 {
		cats = []string{"cameras", "headphones", "phones", "tvs"}
	}
	all := domain.Categories()
	var selected []*domain.Category
	for _, name := range cats {
		if c, ok := all[name]; ok {
			selected = append(selected, c)
		}
	}
	corpus := domain.Corpus(selected, domain.CorpusConfig{
		SentencesPerProp: spec.SentencesPerProp,
		Seed:             spec.Seed,
	})
	cfg := spec.GloVe
	if cfg.Dim == 0 {
		cfg = embedding.DefaultGloVeConfig()
	}
	return embedding.TrainGloVe(corpus, cfg)
}

// TrainGloVe fits GloVe vectors on a custom tokenised corpus.
func TrainGloVe(sentences [][]string, cfg GloVeConfig) (*Store, error) {
	return embedding.TrainGloVe(sentences, cfg)
}

// DefaultGloVeConfig returns the reproduction's default GloVe settings.
func DefaultGloVeConfig() GloVeConfig { return embedding.DefaultGloVeConfig() }

// NewHarness returns an evaluation harness with the paper's protocol
// (25 runs, 2:1 negative sampling).
func NewHarness(store *Store, seed int64) *Harness { return eval.NewHarness(store, seed) }

// NewSimilarityGraph returns an empty similarity graph; feed it
// Matcher.MatchAll output and cluster it.
func NewSimilarityGraph() *SimilarityGraph { return graph.New() }

// Candidate blocking (package blocking): break the quadratic pair
// barrier before matching.
type (
	// Blocker proposes candidate pairs for the matcher to score.
	Blocker = blocking.Blocker
	// BlockingQuality reports pair completeness and reduction ratio.
	BlockingQuality = blocking.Quality
)

// NewTokenBlocker blocks on shared informative name tokens.
func NewTokenBlocker() Blocker { return blocking.NewTokenBlocker() }

// NewEmbeddingBlocker blocks on name-embedding nearest neighbours.
func NewEmbeddingBlocker(store *Store) Blocker { return blocking.NewEmbeddingBlocker(store) }

// UnionBlockers proposes the union of several blockers' candidates.
func UnionBlockers(bs ...Blocker) Blocker { return blocking.Union(bs) }

// MeasureBlocking scores a candidate set against ground truth.
func MeasureBlocking(cands []Pair, props []Property) BlockingQuality {
	return blocking.Measure(cands, props)
}

// Baseline constructors.

// NewAML returns the AgreementMakerLight-style lexical baseline.
func NewAML() BaselineMatcher { return baselines.NewAML() }

// NewFCAMap returns the formal-concept-analysis baseline.
func NewFCAMap() BaselineMatcher { return baselines.NewFCAMap() }

// NewNezhadi returns the supervised string-similarity ML baseline.
// It implements baselines.Trainable and must be trained before matching.
func NewNezhadi() BaselineMatcher { return baselines.NewNezhadi() }

// NewSemProp returns the Seeping-Semantics-style embedding baseline.
func NewSemProp(store *Store) BaselineMatcher { return baselines.NewSemProp(store) }

// NewLSH returns the MinHash instance-based baseline.
func NewLSH() BaselineMatcher { return baselines.NewLSH() }
