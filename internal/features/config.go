package features

import (
	"fmt"
	"strings"

	"leapme/internal/text"
)

// Config selects which Table I feature groups enter the pair vector.
// The paper's evaluation sweeps two dimensions — the feature *level*
// (instance features only, name features only, or both) and the feature
// *kind* (embedding features only, non-embedding features only, or both) —
// for 9 configurations in total.
type Config struct {
	// Instances enables instance-derived features (rows 1–5 aggregated).
	Instances bool
	// Names enables name-derived features (rows 6, 8–15).
	Names bool
	// Embeddings enables the embedding blocks (rows 4 and 6).
	Embeddings bool
	// NonEmbeddings enables the meta-features and string distances
	// (rows 1–3, 8–15).
	NonEmbeddings bool
}

// FullConfig enables every feature, the headline LEAPME configuration.
func FullConfig() Config {
	return Config{Instances: true, Names: true, Embeddings: true, NonEmbeddings: true}
}

// EmbOnly restricts cfg to embedding features (the paper's LEAPME(emb)).
func (c Config) EmbOnly() Config {
	c.Embeddings, c.NonEmbeddings = true, false
	return c
}

// NonEmbOnly restricts cfg to non-embedding features (LEAPME(−emb)).
func (c Config) NonEmbOnly() Config {
	c.Embeddings, c.NonEmbeddings = false, true
	return c
}

// Valid reports whether the config selects at least one feature block.
func (c Config) Valid() bool {
	return (c.Instances || c.Names) && (c.Embeddings || c.NonEmbeddings)
}

// String renders the config the way the paper's tables label it.
func (c Config) String() string {
	level := "both"
	switch {
	case c.Instances && !c.Names:
		level = "instances"
	case c.Names && !c.Instances:
		level = "names"
	}
	kind := "all"
	switch {
	case c.Embeddings && !c.NonEmbeddings:
		kind = "emb"
	case c.NonEmbeddings && !c.Embeddings:
		kind = "-emb"
	}
	return fmt.Sprintf("%s/%s", level, kind)
}

// ParseConfig parses the "level/kind" notation used by String and the
// command-line tools: level ∈ {instances, names, both}, kind ∈
// {emb, -emb, all}.
func ParseConfig(s string) (Config, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return Config{}, fmt.Errorf("features: bad config %q (want level/kind, e.g. both/all)", s)
	}
	var c Config
	switch parts[0] {
	case "instances":
		c.Instances = true
	case "names":
		c.Names = true
	case "both":
		c.Instances, c.Names = true, true
	default:
		return c, fmt.Errorf("features: bad level %q (instances|names|both)", parts[0])
	}
	switch parts[1] {
	case "emb":
		c.Embeddings = true
	case "-emb":
		c.NonEmbeddings = true
	case "all":
		c.Embeddings, c.NonEmbeddings = true, true
	default:
		return c, fmt.Errorf("features: bad kind %q (emb|-emb|all)", parts[1])
	}
	return c, nil
}

// AllConfigs enumerates the paper's 9 feature configurations in table
// order: {instances, names, both} × {all, emb, -emb}.
func AllConfigs() []Config {
	var out []Config
	for _, level := range []struct{ inst, names bool }{
		{true, false}, {false, true}, {true, true},
	} {
		for _, kind := range []struct{ emb, non bool }{
			{true, true}, {true, false}, {false, true},
		} {
			out = append(out, Config{
				Instances:     level.inst,
				Names:         level.names,
				Embeddings:    kind.emb,
				NonEmbeddings: kind.non,
			})
		}
	}
	return out
}

// Block describes one contiguous feature group inside a pair vector —
// the granularity at which match decisions can be explained.
type Block struct {
	// Name identifies the group: "instance-meta", "instance-embedding",
	// "name-embedding" or "name-distances".
	Name string
	// Lo and Hi bound the block's indices in the pair vector: [Lo, Hi).
	Lo, Hi int
}

// Pairer computes pair vectors under a fixed Config against a fixed
// Extractor geometry. It precomputes the index layout once so the hot
// pair loop is a straight gather.
type Pairer struct {
	// diffIdx are the indices of the property-vector difference block
	// (row 7) that the config keeps.
	diffIdx []int
	// distances reports whether the string-distance block (rows 8–15) is
	// included.
	distances bool
	dim       int
	blocks    []Block
}

// NewPairer builds a Pairer for the extractor's geometry under cfg.
func NewPairer(e *Extractor, cfg Config) (*Pairer, error) {
	if !cfg.Valid() {
		return nil, fmt.Errorf("features: config %v selects no features", cfg)
	}
	d := e.EmbeddingDim()
	p := &Pairer{}
	// Property vector layout: [0,29) instance meta (non-emb, instance),
	// [29, 29+D) instance embedding (emb, instance),
	// [29+D, 29+2D) name embedding (emb, name).
	if cfg.Instances && cfg.NonEmbeddings {
		lo := len(p.diffIdx)
		for i := 0; i < MetaDim; i++ {
			p.diffIdx = append(p.diffIdx, i)
		}
		p.blocks = append(p.blocks, Block{Name: "instance-meta", Lo: lo, Hi: len(p.diffIdx)})
	}
	if cfg.Instances && cfg.Embeddings {
		lo := len(p.diffIdx)
		for i := MetaDim; i < MetaDim+d; i++ {
			p.diffIdx = append(p.diffIdx, i)
		}
		p.blocks = append(p.blocks, Block{Name: "instance-embedding", Lo: lo, Hi: len(p.diffIdx)})
	}
	if cfg.Names && cfg.Embeddings {
		lo := len(p.diffIdx)
		for i := MetaDim + d; i < MetaDim+2*d; i++ {
			p.diffIdx = append(p.diffIdx, i)
		}
		p.blocks = append(p.blocks, Block{Name: "name-embedding", Lo: lo, Hi: len(p.diffIdx)})
	}
	p.distances = cfg.Names && cfg.NonEmbeddings
	p.dim = len(p.diffIdx)
	if p.distances {
		p.blocks = append(p.blocks, Block{Name: "name-distances", Lo: p.dim, Hi: p.dim + NumPairDistances})
		p.dim += NumPairDistances
	}
	if p.dim == 0 {
		return nil, fmt.Errorf("features: config %v yields empty pair vector", cfg)
	}
	return p, nil
}

// Blocks returns the pair vector's feature groups in layout order. The
// slice must not be modified.
func (p *Pairer) Blocks() []Block { return p.blocks }

// Dim returns the pair-vector dimension under this config.
func (p *Pairer) Dim() int { return p.dim }

// PairVectorScratch writes the pair features of (a, b) into dst (length
// Dim) — the paper's ppFeatures. The difference block uses the absolute
// element-wise difference so the vector is symmetric in (a, b); the
// string-distance block is text.NameDistances over the two name
// profiles, with es as its scratch, bit-identical to the string-taking
// distance functions (TestNameDistancesMatchOracle). It serves
// training, Explain, classification and serving alike, and with a warm
// es it performs no heap allocations.
//
//lint:hotpath gated by TestPairVectorScratchZeroAllocs
func (p *Pairer) PairVectorScratch(dst []float64, a, b *Prop, es *text.EditScratch) {
	for k, i := range p.diffIdx {
		d := a.Vec[i] - b.Vec[i]
		if d < 0 {
			d = -d
		}
		dst[k] = d
	}
	if p.distances {
		text.NameDistances(dst[len(p.diffIdx):], &a.prof, &b.prof, es)
	}
}
