package dataset

import (
	"fmt"

	"leapme/internal/domain"
)

// The presets reproduce the statistics the paper reports for its four
// evaluation datasets.
//
// Cameras (DI2KG challenge): 24 sources, >3200 properties, ~9200 matching
// pairs, 100 entities per source (the paper caps entities at 100/source to
// balance the dataset). With 40 reference properties at presence 0.92 each
// source carries ~37 shared properties; with C(22,2)≈231 matched source
// pairs per reference property plus splits this lands near 9200 pairs, and
// ~96 noise properties per source push the property count past 3200.
//
// The WDC datasets (headphones, phones, TVs) are far smaller and
// imbalanced — the paper calls them the "low-quality" datasets — so their
// presets use fewer sources, lower presence, and wide entity ranges.

// CamerasConfig is the full-scale DI2KG-shaped camera preset.
func CamerasConfig(seed int64) GenConfig {
	return GenConfig{
		Name:           "cameras",
		Category:       domain.Cameras(),
		NumSources:     24,
		SharedPresence: 0.92,
		CanonicalBias:  0.55,
		SplitProb:      0.06,
		NoiseProps:     96,
		MinEntities:    100,
		MaxEntities:    100,
		MissingRate:    0.25,
		Seed:           seed,
	}
}

// HeadphonesConfig is the WDC-shaped headphones preset.
func HeadphonesConfig(seed int64) GenConfig {
	return GenConfig{
		Name:           "headphones",
		Category:       domain.Headphones(),
		NumSources:     6,
		SharedPresence: 0.78,
		CanonicalBias:  0.4,
		SplitProb:      0.08,
		NoiseProps:     14,
		MinEntities:    8,
		MaxEntities:    120,
		MissingRate:    0.35,
		Seed:           seed,
	}
}

// PhonesConfig is the WDC-shaped phones preset.
func PhonesConfig(seed int64) GenConfig {
	return GenConfig{
		Name:           "phones",
		Category:       domain.Phones(),
		NumSources:     9,
		SharedPresence: 0.72,
		CanonicalBias:  0.4,
		SplitProb:      0.08,
		NoiseProps:     16,
		MinEntities:    6,
		MaxEntities:    100,
		MissingRate:    0.35,
		Seed:           seed,
	}
}

// TVsConfig is the WDC-shaped TVs preset.
func TVsConfig(seed int64) GenConfig {
	return GenConfig{
		Name:           "tvs",
		Category:       domain.TVs(),
		NumSources:     7,
		SharedPresence: 0.75,
		CanonicalBias:  0.4,
		SplitProb:      0.08,
		NoiseProps:     15,
		MinEntities:    8,
		MaxEntities:    110,
		MissingRate:    0.35,
		Seed:           seed,
	}
}

// Lite shrinks a preset for fast experiments: fewer sources, fewer noise
// properties and entities, same heterogeneity mechanisms. The quadratic
// pair count drops by roughly the square of the source reduction, which
// keeps full 25-run sweeps tractable while preserving the result *shape*
// (who wins and by how much), as documented in EXPERIMENTS.md.
func Lite(cfg GenConfig) GenConfig {
	if cfg.NumSources > 8 {
		cfg.NumSources = 8
	}
	if cfg.NoiseProps > 24 {
		cfg.NoiseProps = 24
	}
	if cfg.MinEntities > 25 {
		cfg.MinEntities = 25
	}
	if cfg.MaxEntities > 40 {
		cfg.MaxEntities = 40
	}
	cfg.Name += "-lite"
	return cfg
}

// LargeConfig sizes a preset for blocking and ANN-index benchmarks:
// roughly props properties spread over sources, far beyond the paper's
// datasets. synonymRate in [0, 1] controls naming heterogeneity — the
// probability that a source labels a shared property with a synonym
// instead of its canonical name (0 = all canonical, 1 = never canonical).
// Entities are kept small: the large presets stress candidate generation
// over property *names*, not instance volume.
//
// The property total is met by topping up each source with noise
// properties once its shared (matched) properties are counted, so the
// matched-pair structure stays category-shaped while the corpus grows.
// The global noise-name budget (domain.GenerateNoiseProperties) bounds
// props at roughly 100k; Generate reports an error beyond it.
func LargeConfig(category *domain.Category, props, sources int, synonymRate float64, seed int64) GenConfig {
	if sources < 2 {
		sources = 2
	}
	if synonymRate < 0 {
		synonymRate = 0
	}
	if synonymRate > 1 {
		synonymRate = 1
	}
	const presence = 0.85
	const split = 0.05
	// Expected shared properties per source: present references plus the
	// extra property each split contributes.
	shared := int(float64(len(category.Props)) * presence * (1 + split))
	noise := props/sources - shared
	if noise < 0 {
		noise = 0
	}
	cfg := GenConfig{
		Name:           fmt.Sprintf("%s-large-%dk", category.Name, (props+500)/1000),
		Category:       category,
		NumSources:     sources,
		SharedPresence: presence,
		CanonicalBias:  1 - synonymRate,
		SplitProb:      split,
		NoiseProps:     noise,
		MinEntities:    4,
		MaxEntities:    8,
		MissingRate:    0.3,
		Seed:           seed,
	}
	// CanonicalBias 0 would silently default to 0.5; UniformNames is the
	// explicit "never canonical" switch.
	if synonymRate >= 1 {
		cfg.UniformNames = true
	}
	return cfg
}
