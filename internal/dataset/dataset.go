// Package dataset defines the multi-source property-matching data model of
// the paper (sources, entities, property instances as (p, e, v) tuples, and
// reference-ontology ground truth) plus synthetic generators that reproduce
// the statistics of the paper's four evaluation datasets: the large,
// balanced DI2KG camera dataset (24 sources, >3200 properties, ~9200
// matching pairs) and the three smaller, imbalanced WDC datasets
// (headphones, phones, TVs).
package dataset

import (
	"errors"
	"fmt"
	"sort"
	"unicode/utf8"
)

// Property is one source-specific property. Two properties from different
// sources match iff they share a non-empty Ref (both align to the same
// reference-ontology property), mirroring how the paper derives ground
// truth from the datasets' alignment to a reference ontology.
type Property struct {
	Source string `json:"source"`
	Name   string `json:"name"`
	// Ref is the canonical reference property this property aligns to, or
	// "" for properties with no match anywhere (noise).
	Ref string `json:"ref,omitempty"`
}

// Key identifies a property uniquely within a dataset.
type Key struct {
	Source string
	Name   string
}

// Key returns the property's identity.
func (p Property) Key() Key { return Key{Source: p.Source, Name: p.Name} }

// String renders the key as "source/name".
func (k Key) String() string { return k.Source + "/" + k.Name }

// Instance is one (property, entity, value) observation, the paper's
// i = (p, e, v) tuple, qualified by source.
type Instance struct {
	Source   string `json:"source"`
	Entity   string `json:"entity"`
	Property string `json:"property"`
	Value    string `json:"value"`
}

// Pair is an unordered cross-source property pair.
type Pair struct {
	A, B Key
}

// Canonical returns the pair with its two keys in a deterministic order so
// that {a,b} and {b,a} compare equal.
func (p Pair) Canonical() Pair {
	if p.B.Source < p.A.Source || (p.B.Source == p.A.Source && p.B.Name < p.A.Name) {
		return Pair{A: p.B, B: p.A}
	}
	return p
}

// Dataset is a multi-source property-matching task instance.
type Dataset struct {
	Name      string     `json:"name"`
	Category  string     `json:"category"`
	Sources   []string   `json:"sources"`
	Props     []Property `json:"properties"`
	Instances []Instance `json:"instances"`
}

// Validate checks the dataset strictly: referential integrity (every
// instance must reference a declared source and property, properties must
// be unique per source) plus record well-formedness — empty keys (source,
// property name, instance entity) and non-UTF-8 text are rejected, so
// malformed records never reach the text/feature layers. Use Quarantine
// to salvage the valid remainder of a dataset instead of rejecting it.
func (d *Dataset) Validate() error {
	if d.Name == "" {
		return errors.New("dataset: empty name")
	}
	srcs := map[string]bool{}
	for _, s := range d.Sources {
		if s == "" {
			return fmt.Errorf("dataset %s: empty source name", d.Name)
		}
		if !utf8.ValidString(s) {
			return fmt.Errorf("dataset %s: source name %q is not valid UTF-8", d.Name, s)
		}
		if srcs[s] {
			return fmt.Errorf("dataset %s: duplicate source %q", d.Name, s)
		}
		srcs[s] = true
	}
	props := map[Key]bool{}
	for _, p := range d.Props {
		if p.Name == "" {
			return fmt.Errorf("dataset %s: property of source %q has empty name", d.Name, p.Source)
		}
		if !utf8.ValidString(p.Name) {
			return fmt.Errorf("dataset %s: property name %q is not valid UTF-8", d.Name, p.Name)
		}
		if !srcs[p.Source] {
			return fmt.Errorf("dataset %s: property %s references unknown source", d.Name, p.Key())
		}
		if props[p.Key()] {
			return fmt.Errorf("dataset %s: duplicate property %s", d.Name, p.Key())
		}
		props[p.Key()] = true
	}
	for i, in := range d.Instances {
		if in.Entity == "" {
			return fmt.Errorf("dataset %s: instance %d has empty entity", d.Name, i)
		}
		if !utf8.ValidString(in.Value) {
			return fmt.Errorf("dataset %s: instance %d value is not valid UTF-8", d.Name, i)
		}
		if !props[Key{Source: in.Source, Name: in.Property}] {
			return fmt.Errorf("dataset %s: instance %d references unknown property %s/%s",
				d.Name, i, in.Source, in.Property)
		}
	}
	return nil
}

// PropertyMap returns properties indexed by key.
func (d *Dataset) PropertyMap() map[Key]Property {
	m := make(map[Key]Property, len(d.Props))
	for _, p := range d.Props {
		m[p.Key()] = p
	}
	return m
}

// PropsOfSources returns the properties belonging to any of the given
// sources, in dataset order.
func (d *Dataset) PropsOfSources(sources map[string]bool) []Property {
	var out []Property
	for _, p := range d.Props {
		if sources[p.Source] {
			out = append(out, p)
		}
	}
	return out
}

// InstancesByProperty groups instance values by property key. Values keep
// dataset order.
func (d *Dataset) InstancesByProperty() map[Key][]string {
	m := map[Key][]string{}
	for _, in := range d.Instances {
		k := Key{Source: in.Source, Name: in.Property}
		m[k] = append(m[k], in.Value)
	}
	return m
}

// Matching reports whether two properties are a true match: different
// sources, both aligned to the same reference property.
func Matching(a, b Property) bool {
	return a.Source != b.Source && a.Ref != "" && a.Ref == b.Ref
}

// MatchingPairs returns all ground-truth matching pairs among the given
// properties (cross-source, same non-empty Ref), canonicalised and sorted.
func MatchingPairs(props []Property) []Pair {
	byRef := map[string][]Property{}
	for _, p := range props {
		if p.Ref != "" {
			byRef[p.Ref] = append(byRef[p.Ref], p)
		}
	}
	var out []Pair
	for _, group := range byRef {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if group[i].Source == group[j].Source {
					continue
				}
				//lint:allow determinism the lessPair sort below is a total order over pairs, so map order never reaches the result
				out = append(out, Pair{A: group[i].Key(), B: group[j].Key()}.Canonical())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessPair(out[i], out[j]) })
	return out
}

// CrossSourcePairs enumerates every unordered pair of properties from
// different sources, calling fn for each. Enumeration order is
// deterministic (dataset order). If fn returns false, enumeration stops.
// The pair count grows quadratically; callers stream rather than collect.
func CrossSourcePairs(props []Property, fn func(a, b Property) bool) {
	for i := 0; i < len(props); i++ {
		for j := i + 1; j < len(props); j++ {
			if props[i].Source == props[j].Source {
				continue
			}
			if !fn(props[i], props[j]) {
				return
			}
		}
	}
}

// NumMatchingPairs counts ground-truth matching pairs among props.
func NumMatchingPairs(props []Property) int {
	return len(MatchingPairs(props))
}

func lessPair(a, b Pair) bool {
	if a.A.Source != b.A.Source {
		return a.A.Source < b.A.Source
	}
	if a.A.Name != b.A.Name {
		return a.A.Name < b.A.Name
	}
	if a.B.Source != b.B.Source {
		return a.B.Source < b.B.Source
	}
	return a.B.Name < b.B.Name
}

// Stats summarises a dataset the way the paper reports its datasets.
type Stats struct {
	Sources       int
	Properties    int
	Instances     int
	Entities      int
	MatchingPairs int
}

// Summary computes dataset statistics.
func (d *Dataset) Summary() Stats {
	ents := map[string]bool{}
	for _, in := range d.Instances {
		ents[in.Source+"\x00"+in.Entity] = true
	}
	return Stats{
		Sources:       len(d.Sources),
		Properties:    len(d.Props),
		Instances:     len(d.Instances),
		Entities:      len(ents),
		MatchingPairs: NumMatchingPairs(d.Props),
	}
}
