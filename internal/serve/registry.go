package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leapme/internal/chaos"
	"leapme/internal/core"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/index"
)

// ModelSource names a model file to load, with an optional prebuilt ANN
// index snapshot served alongside it.
type ModelSource struct {
	Name string
	Path string
	// IndexPath, when non-empty, names an index snapshot file (built with
	// `leapme index`) loaded with the model and used by /v1/match/all's
	// "ann" blocking for any request whose properties the snapshot
	// covers. Reloads re-read it, so the snapshot hot-swaps with the
	// model.
	IndexPath string
}

// ParseModelList parses the -model flag syntax: a comma-separated list of
// name=path entries. A bare path gets the name "default" when it is the
// only entry, otherwise it is an error.
func ParseModelList(s string) ([]ModelSource, error) {
	var out []ModelSource
	parts := strings.Split(s, ",")
	var bare []string
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if name, path, ok := strings.Cut(p, "="); ok {
			name, path = strings.TrimSpace(name), strings.TrimSpace(path)
			if name == "" || path == "" {
				return nil, fmt.Errorf("serve: bad model entry %q (want name=path)", p)
			}
			out = append(out, ModelSource{Name: name, Path: path})
		} else {
			bare = append(bare, p)
		}
	}
	if len(bare) > 1 || (len(bare) == 1 && len(out) > 0) {
		return nil, errors.New("serve: multiple models need explicit names (name=path,...)")
	}
	if len(bare) == 1 {
		out = append(out, ModelSource{Name: "default", Path: bare[0]})
	}
	if len(out) == 0 {
		return nil, errors.New("serve: no models given")
	}
	return out, nil
}

// AttachIndexes parses the -index flag syntax — the same name=path list
// as -model, or a single bare path when exactly one model is configured —
// and sets IndexPath on the matching entries of models in place.
func AttachIndexes(models []ModelSource, s string) error {
	byName := map[string]int{}
	for i, ms := range models {
		byName[ms.Name] = i
	}
	var bare []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		name, path, ok := strings.Cut(p, "=")
		if !ok {
			bare = append(bare, p)
			continue
		}
		name, path = strings.TrimSpace(name), strings.TrimSpace(path)
		if name == "" || path == "" {
			return fmt.Errorf("serve: bad index entry %q (want name=path)", p)
		}
		i, found := byName[name]
		if !found {
			return fmt.Errorf("serve: index entry %q names no configured model", name)
		}
		models[i].IndexPath = path
	}
	if len(bare) > 1 || (len(bare) == 1 && len(models) > 1) {
		return errors.New("serve: multiple indexes need explicit model names (name=path,...)")
	}
	if len(bare) == 1 {
		models[0].IndexPath = bare[0]
	}
	return nil
}

// Model is one immutable loaded model version: its scorer snapshot, a
// pool of per-worker scorer clones, the file metadata and a feature
// cache. A Model is never mutated after Load publishes it; hot swaps
// replace the whole value.
type Model struct {
	Name     string
	Path     string
	Info     core.ModelInfo
	LoadedAt time.Time

	// IndexPath and Index carry the model's optional prebuilt ANN
	// snapshot (nil when none was configured). Like the scorer, the
	// snapshot is immutable once published and hot-swaps wholesale on
	// reload.
	IndexPath string
	Index     *index.Snapshot

	// template serves concurrent-safe featurization and describes the
	// snapshot (threshold, pair dim); scoring checks clones out of pool.
	template *core.Scorer
	pool     chan *core.Scorer
	cache    *featureCache
}

// Threshold returns the model's default match threshold.
func (m *Model) Threshold() float64 { return m.template.Threshold() }

// CacheStats returns the model's feature-cache hit/miss/occupancy counts.
func (m *Model) CacheStats() (hits, misses int64, entries int) {
	return m.cache.Hits(), m.cache.Misses(), m.cache.Len()
}

// Featurize computes (or recalls) the feature vector for a property given
// by name and values, through the model's LRU cache. Safe for concurrent
// use; the returned Prop is shared and must not be mutated.
func (m *Model) Featurize(name string, values []string) *features.Prop {
	key := propDigest(name, values)
	if p, ok := m.cache.Get(key); ok {
		return p
	}
	p := m.template.Featurize(name, values)
	m.cache.Put(key, p)
	return p
}

// acquire checks a scorer clone out of the pool, blocking until one is
// free; release returns it.
func (m *Model) acquire() *core.Scorer  { return <-m.pool }
func (m *Model) release(s *core.Scorer) { m.pool <- s }

// RegistryOptions configures how the registry builds models.
type RegistryOptions struct {
	// Workers sizes each model's scorer pool (default 4). It should match
	// the batcher's worker count: a batch worker never waits for a scorer.
	Workers int
	// CacheSize bounds each model's feature cache in entries (default
	// 4096; 0 after defaulting still means 4096, use -1 to disable).
	CacheSize int
	// Threshold is every model's match threshold. Model files store no
	// threshold, so 0 (or any value outside (0, 1)) means core's
	// default of 0.5.
	Threshold float64
	// MaxValues caps instance values aggregated per served property
	// (0 = all), mirroring core.Options.MaxValues.
	MaxValues int
	// Chaos, when non-nil, arms the PointReload corruption hook: model
	// bytes read during Load/Reload pass through the injector, so tests
	// can prove a corrupt reload keeps the old snapshot serving.
	Chaos *chaos.Injector
}

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	return o
}

// Registry holds named models over one embedding store and tracks the
// active one. All methods are safe for concurrent use; readers resolve a
// *Model pointer once and keep using it regardless of later swaps.
type Registry struct {
	store *embedding.Store
	opts  RegistryOptions
	met   *Metrics

	mu         sync.RWMutex
	models     map[string]*Model
	activeName string
	active     atomic.Pointer[Model]
}

// NewRegistry returns an empty registry over the store.
func NewRegistry(store *embedding.Store, opts RegistryOptions) (*Registry, error) {
	if store == nil {
		return nil, errors.New("serve: nil embedding store")
	}
	return &Registry{
		store:  store,
		opts:   opts.withDefaults(),
		models: map[string]*Model{},
	}, nil
}

// build loads a model source into a fresh Model without publishing it.
func (r *Registry) build(ms ModelSource) (*Model, error) {
	name, path := ms.Name, ms.Path
	info, err := core.LoadInfoFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: describing model %s (%s): %w", name, path, err)
	}
	opts := core.DefaultOptions(0)
	if info.HasDescriptor {
		opts.Features = info.Features
		if info.EmbeddingDim != r.store.Dim() {
			return nil, fmt.Errorf("serve: model %s was trained against embedding dim %d, store has %d",
				name, info.EmbeddingDim, r.store.Dim())
		}
	}
	if r.opts.Threshold > 0 {
		opts.Threshold = r.opts.Threshold
	}
	opts.MaxValues = r.opts.MaxValues
	m, err := core.NewMatcher(r.store, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", name, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", name, err)
	}
	defer f.Close()
	// Chaos hook: a Corrupt fault bit-flips the model bytes so the CRC
	// check fails the load; Reload then keeps the previous version.
	var rd io.Reader = r.opts.Chaos.Reader(chaos.PointReload, f)
	if err := m.ReadModel(rd); err != nil {
		return nil, fmt.Errorf("serve: loading model %s (%s): %w", name, path, err)
	}
	sc, err := m.NewScorer()
	if err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", name, err)
	}
	md := &Model{
		Name:      name,
		Path:      path,
		Info:      info,
		LoadedAt:  time.Now(),
		IndexPath: ms.IndexPath,
		template:  sc,
		pool:      make(chan *core.Scorer, r.opts.Workers),
		cache:     newFeatureCache(r.opts.CacheSize),
	}
	if ms.IndexPath != "" {
		snap, err := index.ReadSnapshotFile(ms.IndexPath)
		if err != nil {
			return nil, fmt.Errorf("serve: loading index for model %s: %w", name, err)
		}
		if d := snap.Index().Dim(); d != r.store.Dim() {
			return nil, fmt.Errorf("serve: index for model %s was built against embedding dim %d, store has %d",
				name, d, r.store.Dim())
		}
		md.Index = snap
	}
	for i := 0; i < r.opts.Workers; i++ {
		md.pool <- sc.Clone()
	}
	return md, nil
}

// Load reads a model file and publishes it under name, replacing any
// previous version atomically. The first loaded model becomes active; a
// reload of the currently active name swings the active pointer to the
// new version. In-flight requests holding the old *Model are unaffected.
func (r *Registry) Load(name, path string) (*Model, error) {
	return r.LoadSource(ModelSource{Name: name, Path: path})
}

// LoadSource is Load with the full model source, including an optional
// index snapshot path that loads (and on reload, hot-swaps) with the
// model.
func (r *Registry) LoadSource(ms ModelSource) (*Model, error) {
	name := ms.Name
	if name == "" {
		return nil, errors.New("serve: empty model name")
	}
	md, err := r.build(ms)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.models[name] = md
	if r.activeName == "" || r.activeName == name {
		r.activeName = name
		r.active.Store(md)
	}
	r.mu.Unlock()
	if r.met != nil {
		r.met.ModelSwaps.Add(1)
	}
	return md, nil
}

// Activate makes the named model the default for requests that do not
// name one.
func (r *Registry) Activate(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	md, ok := r.models[name]
	if !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	r.activeName = name
	r.active.Store(md)
	if r.met != nil {
		r.met.ModelSwaps.Add(1)
	}
	return nil
}

// Active returns the current default model (nil before the first Load).
func (r *Registry) Active() *Model { return r.active.Load() }

// Get resolves a request's model: the named one, or the active model for
// an empty name.
func (r *Registry) Get(name string) (*Model, error) {
	if name == "" {
		if md := r.Active(); md != nil {
			return md, nil
		}
		return nil, errors.New("serve: no active model")
	}
	r.mu.RLock()
	md, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return md, nil
}

// List returns the loaded models sorted by name.
func (r *Registry) List() []*Model {
	r.mu.RLock()
	out := make([]*Model, 0, len(r.models))
	for _, md := range r.models {
		out = append(out, md)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reload re-reads every model — and its index snapshot, when configured —
// from its file: the SIGHUP path. A model whose file fails to load keeps
// serving its previous version; the returned error joins all failures.
func (r *Registry) Reload() error {
	var errs []error
	for _, md := range r.List() {
		if _, err := r.LoadSource(ModelSource{Name: md.Name, Path: md.Path, IndexPath: md.IndexPath}); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
