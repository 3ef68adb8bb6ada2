// Package text implements the lexical machinery LEAPME's features are built
// on: a tokenizer shared by the feature extractor and the embedding corpus
// reader, Unicode character and token classification matching the TAPON
// meta-features (Table I rows 1–2 of the paper), the string similarities
// the baselines use (Jaro, Jaro–Winkler, longest common subsequence,
// Monge–Elkan), and the eight string distances used as property-pair
// features (Table I rows 8–15):
//
//   - optimal string alignment distance (restricted Damerau–Levenshtein)
//   - Levenshtein distance
//   - full (unrestricted) Damerau–Levenshtein distance
//   - longest common substring distance
//   - q-gram (3-gram) distance
//   - cosine distance between 3-gram profiles
//   - Jaccard distance between 3-gram profiles
//   - Jaro–Winkler distance
//
// Every pair distance is normalised to [0, 1] so classifiers see
// comparable scales regardless of string length.
//
// # One implementation on the feature path
//
// The eight distances have one implementation. The string-taking
// functions that define them (NormalizedLevenshtein, NormalizedOSA,
// TriGramDistance, JaroWinklerDistance, …) live in the package's tests as
// the reference. NewNameProfile prepares a name once (its runes, an ASCII
// flag, and its padded 3-grams as sorted packed ids with counts), and
// NameDistances computes all eight for two profiles with an EditScratch
// that makes a warm call allocation-free.
//
// When both names are ASCII and at most 64 runes long — every name the
// dataset presets generate — NameDistances runs word-size algorithms with
// each name's match masks in one uint64 per character:
//
//   - Levenshtein and OSA in one fused bit-vector pass, Myers (1999) in
//     the formulation of Hyyrö (2003), which adds OSA's transpositions;
//   - the longest common substring by shifting match masks along the
//     diagonals, one pass over the second name per substring length;
//   - Jaro's greedy matching with a trailing-zero count per rune;
//   - full Damerau–Levenshtein on the Lowrance–Wagner table, with a [128]
//     array for its last-occurrence alphabet.
//
// Any other pair — a non-ASCII name, invalid UTF-8 (folded to U+FFFD as
// []rune folds it) or a name longer than 64 runes — falls back to the
// scratch-backed rune DPs, which are the string functions' own algorithms.
// The three 3-gram distances come from one merge walk over the sorted gram
// ids on both paths. Every value is bit-identical to the string function
// it replaces: TestNameDistancesMatchOracle and FuzzNameDistances check
// this with math.Float64bits.
package text
