package embedding

import "testing"

func sentences() [][]string {
	return [][]string{
		{"camera", "resolution", "megapixels"},
		{"camera", "sensor", "resolution"},
		{"camera", "lens"},
	}
}

func TestBuildVocabOrdering(t *testing.T) {
	v := BuildVocab(sentences(), 1)
	if v.Size() != 5 {
		t.Fatalf("size = %d, want 5", v.Size())
	}
	// "camera" occurs 3 times → id 0.
	if w := v.Words()[0]; w != "camera" {
		t.Errorf("most frequent word = %q", w)
	}
	// Frequency ties break lexicographically.
	id1, _ := v.ID("resolution")
	if id1 != 1 {
		t.Errorf("resolution id = %d, want 1 (freq 2)", id1)
	}
	if _, ok := v.ID("absent"); ok {
		t.Error("ID reported absent word present")
	}
}

func TestBuildVocabMinCount(t *testing.T) {
	v := BuildVocab(sentences(), 2)
	if v.Size() != 2 { // camera (3), resolution (2)
		t.Fatalf("size with minCount=2: %d, want 2", v.Size())
	}
	if _, ok := v.ID("lens"); ok {
		t.Error("lens should be cut by minCount")
	}
}

// cell returns the accumulated count for the unordered pair {a, b}, or 0
// when the pair never co-occurred.
func cell(co *Cooccurrence, a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	for c := co.rowStart[a]; c < co.rowStart[a+1]; c++ {
		if co.col[c] == b {
			return co.val[c]
		}
	}
	return 0
}

func TestCooccurrenceCounts(t *testing.T) {
	v := BuildVocab(sentences(), 1)
	co := CountCooccurrences(sentences(), v, 2)
	cam, _ := v.ID("camera")
	res, _ := v.ID("resolution")
	mp, _ := v.ID("megapixels")
	// camera–resolution: distance 1 in sent 1 (weight 1), distance 2 in
	// sent 2 (weight 0.5) → 1.5.
	if got := cell(co, cam, res); got != 1.5 {
		t.Errorf("camera-resolution = %v, want 1.5", got)
	}
	// Symmetric access.
	if cell(co, res, cam) != cell(co, cam, res) {
		t.Error("co-occurrence should be symmetric")
	}
	// resolution–megapixels adjacent once → 1.
	if got := cell(co, res, mp); got != 1 {
		t.Errorf("resolution-megapixels = %v, want 1", got)
	}
	if co.NumPairs() == 0 {
		t.Error("no pairs counted")
	}
}

func TestCooccurrenceWindowLimit(t *testing.T) {
	v := BuildVocab(sentences(), 1)
	co := CountCooccurrences(sentences(), v, 1)
	cam, _ := v.ID("camera")
	mp, _ := v.ID("megapixels")
	if got := cell(co, cam, mp); got != 0 {
		t.Errorf("window 1 should not pair camera-megapixels, got %v", got)
	}
}
