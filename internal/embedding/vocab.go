package embedding

import "sort"

// Vocab maps words to dense integer ids. Ids are assigned by descending
// corpus frequency (ties broken lexicographically) so that id 0 is the most
// frequent word, matching the layout GloVe tooling expects.
type Vocab struct {
	words []string       // id → word
	ids   map[string]int // word → id
}

// BuildVocab scans sentences and keeps every word occurring at least
// minCount times.
func BuildVocab(sentences [][]string, minCount int) *Vocab {
	if minCount < 1 {
		minCount = 1
	}
	freq := map[string]int{}
	for _, s := range sentences {
		for _, w := range s {
			freq[w]++
		}
	}
	type wc struct {
		w string
		c int
	}
	kept := make([]wc, 0, len(freq))
	for w, c := range freq {
		if c >= minCount {
			//lint:allow determinism the (count, word) sort below is a total order, so map order never reaches the ids
			kept = append(kept, wc{w, c})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].c != kept[j].c {
			return kept[i].c > kept[j].c
		}
		return kept[i].w < kept[j].w
	})
	v := &Vocab{
		words: make([]string, len(kept)),
		ids:   make(map[string]int, len(kept)),
	}
	for i, k := range kept {
		v.words[i] = k.w
		v.ids[k.w] = i
	}
	return v
}

// Size returns the number of words in the vocabulary.
func (v *Vocab) Size() int { return len(v.words) }

// ID returns the id of w and whether it is in the vocabulary.
func (v *Vocab) ID(w string) (int, bool) {
	id, ok := v.ids[w]
	return id, ok
}

// Words returns the words in id order. The returned slice must not be
// modified.
func (v *Vocab) Words() []string { return v.words }
