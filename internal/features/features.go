package features

import (
	"fmt"
	"sync"

	"leapme/internal/embedding"
	"leapme/internal/mathx"
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

	// scPool recycles *Scratch arenas across properties and workers so
	// the steady-state featurisation path allocates nothing per value.
	scPool sync.Pool
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

// instanceFeaturesInto writes the feature vector of a single property
// value (Table I rows 1–4), the paper's iFeatures, into dst.
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
// The accumulation order — the values' instance vectors summed in value
// order, then one scale, then the name embedding — is exactly
// PropertyFeatures', so the bits are identical; only the vector's
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
		e.accumulateInstances(instPart, values, sc)
		mathx.ScaleTo(instPart, instPart, 1/float64(len(values)))
	}
	e.store.EncodePhraseInto(dst[e.InstanceDim():], name, &sc.toks)
	return &Prop{Name: name, Vec: dst, prof: text.NewNameProfile(text.NormalizeName(name))}
}

// accumulateInstances sums the instance-feature vector of every value
// into dst, in value order, through the scratch arena — the inner loop
// of property featurisation. With a warm scratch it performs no heap
// allocations.
//
//lint:hotpath gated by TestFeatureMatrixAllocs
func (e *Extractor) accumulateInstances(dst []float64, values []string, sc *Scratch) {
	for _, v := range values {
		e.instanceFeaturesInto(sc.inst, v, &sc.toks)
		mathx.AddTo(dst, dst, sc.inst)
	}
}
