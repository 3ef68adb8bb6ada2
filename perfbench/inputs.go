package main

import (
	"crypto/sha256"
	"encoding/json"
	"sort"

	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/embedding"
)

// embedDim is the embedding dimension of the benchmark's GloVe store, the
// one the committed BENCH_*.json fixtures use. Every other store and model
// setting is the program's default.
const embedDim = 32

// trainFrac is the paper's 80% training-source protocol.
const trainFrac = 0.8

// subSeed derives the seed of the i-th input of one kind from the run's
// workload seed, so every input is a pure function of --seed.
func subSeed(seed int64, kind, i int) int64 {
	return seed*1_000_003 + int64(kind)*10_007 + int64(i)
}

// Kinds of derived inputs, one seed stream each.
const (
	kindFresh = iota + 1
	kindCatalog
	kindRequests
	kindWarmup
)

// corpus is the GloVe training text `leapme embed` uses by default: the
// four product categories.
func corpus(seed int64) [][]string {
	all := domain.Categories()
	cats := []*domain.Category{all["cameras"], all["headphones"], all["phones"], all["tvs"]}
	return domain.Corpus(cats, domain.CorpusConfig{SentencesPerProp: 120, Seed: seed})
}

func gloveConfig(seed int64) embedding.GloVeConfig {
	cfg := embedding.DefaultGloVeConfig()
	cfg.Dim = embedDim
	cfg.Seed = seed
	return cfg
}

// camerasLite is the seed-generated cameras-lite dataset: ~490
// properties in 8 sources.
func camerasLite(seed int64) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Lite(dataset.CamerasConfig(seed)))
}

// datasetSeed generates the dataset the Algorithm 1 jobs and the served
// model train on: cameras-lite as `datagen -lite` writes it. The workload
// seed draws the source splits and model seeds over it, as the paper's
// protocol draws random splits over a fixed dataset. Work varies far less
// between splits than between generated datasets: the job's pair counts
// vary by 0.3% (coefficient of variation) across splits of one dataset
// and by 2.9% across datasets of different seeds.
const datasetSeed = 1

// prop is a property as a client sends it, plus its ground-truth
// reference (empty for properties that match nothing).
type prop struct {
	Source string
	Name   string
	Values []string
	Ref    string
}

func (p *prop) key() string { return p.Source + "/" + p.Name }

// matches is the generator's ground truth: two distinct properties match
// when they align to the same reference property.
func matches(a, b *prop) bool { return a != b && a.Ref != "" && a.Ref == b.Ref }

// propsOf lists a dataset's properties with their instance values, in
// (source, name) order.
func propsOf(d *dataset.Dataset) []*prop {
	values := d.InstancesByProperty()
	out := make([]*prop, 0, len(d.Props))
	for _, p := range d.Props {
		out = append(out, &prop{Source: p.Source, Name: p.Name, Values: values[p.Key()], Ref: p.Ref})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// pairKey names an unordered property pair.
func pairKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// wire types of the serving API, as a client writes and reads them.
type wireProp struct {
	Name   string   `json:"name"`
	Values []string `json:"values,omitempty"`
}

type wirePair struct {
	A wireProp `json:"a"`
	B wireProp `json:"b"`
}

type matchRequest struct {
	Pairs []wirePair `json:"pairs"`
}

type matchResponse struct {
	Results []struct {
		Score float64 `json:"score"`
		Match bool    `json:"match"`
		Error string  `json:"error"`
	} `json:"results"`
}

type matchAllRequest struct {
	Sources  map[string][]wireProp `json:"sources"`
	Blocking string                `json:"blocking"`
}

type matchAllMatch struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Score float64 `json:"score"`
}

type matchAllResponse struct {
	Candidates int             `json:"candidates"`
	Scored     int             `json:"scored"`
	Failures   int             `json:"failures"`
	Matches    []matchAllMatch `json:"matches"`
}

func wire(p *prop) wireProp { return wireProp{Name: p.Name, Values: p.Values} }

// digestOf fingerprints generated inputs; the seed tests compare them.
func digestOf(parts ...[]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings are marshalled
	}
	return b
}
