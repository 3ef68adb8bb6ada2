// Package features implements Table I of the paper: the instance,
// property and property-pair features LEAPME feeds its classifier.
//
// Instance features (per property value, rows 1–4):
//
//	row 1: fraction and count of 9 character types (uppercase letters,
//	       lowercase letters, letters of either case, marks, numbers,
//	       punctuation, symbols, separators, other)        → 18 features
//	row 2: fraction and count of 5 token types (words, lowercase-initial
//	       words, capitalized words, uppercase words, numeric strings)
//	                                                        → 10 features
//	row 3: the numeric value of the instance, −1 if not a number → 1
//	row 4: the average embedding vector of the instance's words → D
//
// yielding 29 + D per instance (29 + 300 = 329 with the paper's GloVe
// dimension, matching the paper's count).
//
// Property features (rows 5–6): the element-wise average of the property's
// instance features (29 + D) plus the average embedding of the property
// *name*'s words (D), for 29 + 2D per property.
//
// Property-pair features (rows 7–15): the absolute element-wise difference
// of the two property vectors (29 + 2D) followed by eight string distances
// between the property names (optimal string alignment, Levenshtein, full
// Damerau–Levenshtein, longest common substring, 3-gram, cosine over
// 3-gram profiles, Jaccard over 3-gram profiles, Jaro–Winkler). The edit
// distances are normalised by max string length so all features share the
// [0, 1] scale regardless of name length.
//
// A Prop is one featurised property: its vector (rows 5–6) and a
// text.NameProfile of its normalised name, built once when the property
// is featurised. Pairer.PairVectorScratch is the one pair-vector path —
// training, Explain, classification and serving all call it — and its
// distance block is text.NameDistances over the two profiles, threaded
// with the caller's text.EditScratch so a warm call allocates nothing.
//
// # Parallelism and determinism
//
// FeatureMatrix fans the properties of a dataset out across a worker
// pool, one property per unit. Each property is featurised serially by
// the worker that claimed it — its values' instance vectors summed in
// value order, then scaled — and written into its own row of the slab,
// so no row depends on which worker ran it or on how many there are:
// `-workers=N` reproduces the single-threaded feature matrices bit for
// bit (see `make test-determinism`). A single property never fans out
// further; the per-property pool already keeps every CPU busy.
package features
