package serve

import (
	"fmt"
	"sync"
	"testing"

	"leapme/internal/features"
)

func TestPropDigestFraming(t *testing.T) {
	base := propDigest("ab", []string{"c"})
	cases := []struct {
		name   string
		values []string
	}{
		{"a", []string{"bc"}},     // boundary shifted between name and value
		{"ab", []string{"c", ""}}, // trailing empty value
		{"ab", nil},               // no values
		{"abc", nil},              // values folded into name
		{"ab", []string{"cx"}},    // different content
	}
	for _, c := range cases {
		if propDigest(c.name, c.values) == base {
			t.Errorf("digest(%q, %q) collides with digest(\"ab\", [\"c\"])", c.name, c.values)
		}
	}
	if propDigest("ab", []string{"c"}) != base {
		t.Error("digest is not deterministic")
	}
	if propDigest("a", []string{"b", "c"}) == propDigest("a", []string{"bc"}) {
		t.Error("value boundaries not framed")
	}
}

func TestFeatureCacheLRU(t *testing.T) {
	c := newFeatureCache(2)
	p := func(i int) *features.Prop { return &features.Prop{Name: fmt.Sprintf("p%d", i)} }
	k := func(i int) [32]byte { return propDigest(fmt.Sprintf("k%d", i), nil) }

	if _, ok := c.Get(k(1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k(1), p(1))
	c.Put(k(2), p(2))
	if got, ok := c.Get(k(1)); !ok || got.Name != "p1" {
		t.Fatal("k1 should be cached")
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.Put(k(3), p(3))
	if _, ok := c.Get(k(2)); ok {
		t.Error("k2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("k1 should survive (recently used)")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Error("k3 should be cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if c.Hits() != 3 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", c.Hits(), c.Misses())
	}

	// Re-inserting an existing key replaces the value without growing.
	c.Put(k(3), p(33))
	if got, _ := c.Get(k(3)); got.Name != "p33" {
		t.Error("re-insert did not replace value")
	}
	if c.Len() != 2 {
		t.Errorf("Len after re-insert = %d, want 2", c.Len())
	}
}

func TestFeatureCacheDisabled(t *testing.T) {
	c := newFeatureCache(-1)
	c.Put(propDigest("x", nil), &features.Prop{Name: "x"})
	if _, ok := c.Get(propDigest("x", nil)); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestFeatureCacheConcurrentRefresh: requests that featurize the same
// property at once both Put it, refreshing the entry while others Get
// it. Under -race this fails if Get reads the entry outside the lock.
func TestFeatureCacheConcurrentRefresh(t *testing.T) {
	c := newFeatureCache(4)
	key := propDigest("zoom", nil)
	c.Put(key, &features.Prop{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Put(key, &features.Prop{})
				if _, ok := c.Get(key); !ok {
					t.Error("refreshed entry missing")
					return
				}
			}
		}()
	}
	wg.Wait()
}
