package features

import (
	"context"
	"fmt"
	"sync"

	"leapme/internal/embedding"
	"leapme/internal/mathx"
	"leapme/internal/parallel"
	"leapme/internal/text"
)

// MetaDim is the number of non-embedding instance features (rows 1–3).
const MetaDim = 18 + 10 + 1

// NumPairDistances is the number of name string distances (rows 8–15),
// the values text.NameDistances writes.
const NumPairDistances = text.NumNameDistances

// Extractor computes Table I feature vectors against an embedding store.
type Extractor struct {
	store *embedding.Store
	// MaxValues caps how many instance values are aggregated per property
	// (0 = no cap). The paper computes features for every instance; the
	// cap exists for very large sources and is off by default.
	MaxValues int
	// Workers fans the per-value featurisation of PropertyFeatures across
	// a worker pool when > 1 (negative = one per CPU, 0/1 = serial). The
	// result is bit-identical for every setting — see the package doc.
	Workers int

	// scPool recycles *Scratch arenas across properties and workers so
	// the steady-state featurisation path allocates nothing per value.
	scPool sync.Pool
	// winPool recycles the featureWindow-sized buffer of the parallel
	// aggregation path (hoisted per-window scratch).
	winPool sync.Pool
}

// NewExtractor returns an Extractor over the given embedding store.
func NewExtractor(store *embedding.Store) *Extractor {
	return &Extractor{store: store}
}

// EmbeddingDim returns D, the dimension of the embedding blocks.
func (e *Extractor) EmbeddingDim() int { return e.store.Dim() }

// InstanceDim returns the per-instance feature dimension (29 + D).
func (e *Extractor) InstanceDim() int { return MetaDim + e.store.Dim() }

// PropertyDim returns the per-property feature dimension (29 + 2D).
func (e *Extractor) PropertyDim() int { return MetaDim + 2*e.store.Dim() }

// InstanceFeatures computes the feature vector of a single property value
// (Table I rows 1–4), the paper's iFeatures.
func (e *Extractor) InstanceFeatures(value string) []float64 {
	out := make([]float64, e.InstanceDim())
	var ts text.TokenScratch
	e.instanceFeaturesInto(out, value, &ts)
	return out
}

func (e *Extractor) instanceFeaturesInto(dst []float64, value string, ts *text.TokenScratch) {
	// Row 1: character classes. The paper's 9 types are upper, lower,
	// letters of both cases, marks, numbers, punctuation, symbols,
	// separators, other; "both cases" is the total letter count.
	counts, total := text.CharClassCounts(value)
	letters := counts[text.CharUpper] + counts[text.CharLower] + counts[text.CharOtherLet]
	charCounts := [9]int{
		counts[text.CharUpper], counts[text.CharLower], letters,
		counts[text.CharMark], counts[text.CharNumber], counts[text.CharPunct],
		counts[text.CharSymbol], counts[text.CharSeparator], counts[text.CharOther],
	}
	i := 0
	for _, c := range charCounts {
		frac := 0.0
		if total > 0 {
			frac = float64(c) / float64(total)
		}
		dst[i] = frac
		dst[i+1] = float64(c)
		i += 2
	}

	// Row 2: token classes.
	tokCounts, tokTotal := text.TokenClassCounts(value)
	for _, c := range tokCounts {
		frac := 0.0
		if tokTotal > 0 {
			frac = float64(c) / float64(tokTotal)
		}
		dst[i] = frac
		dst[i+1] = float64(c)
		i += 2
	}

	// Row 3: numeric value, −1 if not a number.
	dst[i] = NumericValue(value)
	i++

	// Row 4: average embedding of the value's words, computed straight
	// into the destination row (bit-identical to copying EncodePhrase).
	e.store.EncodePhraseInto(dst[i:], value, ts)
}

// NumericValue parses value as a number, returning −1 when it is not one.
// Thousands separators and a trailing/leading currency or unit word do not
// count: the value must be a bare number (the paper's TAPON convention).
func NumericValue(value string) float64 {
	s := trimSpace(value)
	if s == "" {
		return -1
	}
	var intPart, fracPart float64
	var fracScale float64 = 1
	seenDigit, seenDot, neg := false, false, false
	for i, r := range s {
		switch {
		case r == '-' && i == 0:
			neg = true
		case r == '+' && i == 0:
		case r >= '0' && r <= '9':
			seenDigit = true
			if seenDot {
				fracScale /= 10
				fracPart += float64(r-'0') * fracScale
			} else {
				intPart = intPart*10 + float64(r-'0')
			}
		case r == '.' && !seenDot:
			seenDot = true
		case r == ',':
			// thousands separator, ignored
		default:
			return -1
		}
	}
	if !seenDigit {
		return -1
	}
	v := intPart + fracPart
	if neg {
		v = -v
	}
	return v
}

func trimSpace(s string) string {
	start, end := 0, len(s)
	for start < end && (s[start] == ' ' || s[start] == '\t') {
		start++
	}
	for end > start && (s[end-1] == ' ' || s[end-1] == '\t') {
		end--
	}
	return s[start:end]
}

// Prop bundles everything pair featurisation needs about one property:
// its aggregated feature vector and the profile of its normalised name.
type Prop struct {
	Name string
	// Vec is the property feature vector (rows 5–6): mean instance
	// features followed by the name embedding. Length 29 + 2D.
	Vec []float64

	// prof profiles text.NormalizeName(Name) once, at featurise time,
	// for the string distances of every pair the property takes part in.
	prof text.NameProfile
}

// PropertyFeatures computes the property-level vector (rows 5–6), the
// paper's pFeatures: the mean of the instance feature vectors of values,
// concatenated with the average embedding of the property name's words.
func (e *Extractor) PropertyFeatures(name string, values []string) *Prop {
	vec := make([]float64, e.PropertyDim())
	sc := e.getScratch()
	p := e.PropertyFeaturesInto(vec, name, values, sc)
	e.putScratch(sc)
	return p
}

// PropertyFeaturesInto is PropertyFeatures writing the feature vector
// into dst (length PropertyDim), which becomes the returned Prop's Vec.
// The accumulation order — serial value loop or windowed parallel sum,
// then one scale, then the name embedding — is exactly PropertyFeatures',
// so the bits are identical for every worker count; only the vector's
// backing storage is caller-chosen. dst need not be zeroed.
func (e *Extractor) PropertyFeaturesInto(dst []float64, name string, values []string, sc *Scratch) *Prop {
	if len(dst) != e.PropertyDim() {
		panic(fmt.Sprintf("features: PropertyFeaturesInto dst has len %d, want %d", len(dst), e.PropertyDim()))
	}
	if e.MaxValues > 0 && len(values) > e.MaxValues {
		values = values[:e.MaxValues]
	}
	instPart := dst[:e.InstanceDim()]
	mathx.Zero(instPart)
	if len(values) > 0 {
		if w := parallel.Resolve(e.Workers); w > 1 && len(values) >= parValuesThreshold {
			e.sumInstanceFeatures(instPart, values, w)
		} else {
			e.accumulateInstances(instPart, values, sc)
		}
		mathx.ScaleTo(instPart, instPart, 1/float64(len(values)))
	}
	e.store.EncodePhraseInto(dst[e.InstanceDim():], name, &sc.toks)
	return &Prop{Name: name, Vec: dst, prof: text.NewNameProfile(text.NormalizeName(name))}
}

// accumulateInstances sums the instance-feature vector of every value
// into dst through the scratch arena — the serial inner loop of property
// featurisation. With a warm scratch it performs no heap allocations.
//
//lint:hotpath gated by TestFeatureMatrixAllocs
func (e *Extractor) accumulateInstances(dst []float64, values []string, sc *Scratch) {
	for _, v := range values {
		e.instanceFeaturesInto(sc.inst, v, &sc.toks)
		mathx.AddTo(dst, dst, sc.inst)
	}
}

// parValuesThreshold is the minimum number of values before
// PropertyFeatures bothers spinning up the worker pool; below it the
// pool overhead dwarfs the work.
const parValuesThreshold = 64

// featureWindow bounds the scratch the parallel aggregation holds at
// once: values are featurised in windows of this many vectors.
const featureWindow = 256

// sumInstanceFeatures adds every value's instance-feature vector into dst
// using workers goroutines. Workers only compute vectors — a pure
// per-value map; the summation folds them in value order on this
// goroutine, so the bits match the serial loop exactly regardless of
// worker count (the ordered merge of the package doc).
func (e *Extractor) sumInstanceFeatures(dst []float64, values []string, workers int) {
	dim := e.InstanceDim()
	// The window buffer and per-worker token scratches are hoisted into
	// pools: a steady-state caller featurising many properties reuses
	// them instead of re-allocating per property (and per value).
	buf := e.getWindow()
	defer e.putWindow(buf)
	// Each window is bounded (featureWindow values) so cancellation
	// between windows is the per-property ctx check in internal/core;
	// the fan-out itself never blocks long enough to need its own.
	ctx := context.Background()
	for lo := 0; lo < len(values); lo += featureWindow {
		hi := lo + featureWindow
		if hi > len(values) {
			hi = len(values)
		}
		n := hi - lo
		parallel.ForEach(ctx, workers, n, nil, func(i int) error {
			sc := e.getScratch()
			e.instanceFeaturesInto(buf[i*dim:(i+1)*dim], values[lo+i], &sc.toks)
			e.putScratch(sc)
			return nil
		})
		for i := 0; i < n; i++ {
			mathx.AddTo(dst, dst, buf[i*dim:(i+1)*dim])
		}
	}
}
