package dataset

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"leapme/internal/domain"
)

func smallConfig(seed int64) GenConfig {
	return GenConfig{
		Name:           "test",
		Category:       domain.Headphones(),
		NumSources:     4,
		SharedPresence: 0.8,
		SplitProb:      0.1,
		NoiseProps:     6,
		MinEntities:    5,
		MaxEntities:    10,
		MissingRate:    0.3,
		Seed:           seed,
	}
}

func TestGenerateValid(t *testing.T) {
	d, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := d.Summary()
	if s.Sources != 4 {
		t.Errorf("sources = %d", s.Sources)
	}
	if s.Properties < 4*10 {
		t.Errorf("suspiciously few properties: %d", s.Properties)
	}
	if s.MatchingPairs == 0 {
		t.Error("no matching pairs generated")
	}
	if s.Instances == 0 {
		t.Error("no instances generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Props) != len(b.Props) || len(a.Instances) != len(b.Instances) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Props {
		if a.Props[i] != b.Props[i] {
			t.Fatalf("prop %d differs: %v vs %v", i, a.Props[i], b.Props[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(smallConfig(1))
	b, _ := Generate(smallConfig(2))
	same := len(a.Props) == len(b.Props)
	if same {
		identical := true
		for i := range a.Props {
			if a.Props[i] != b.Props[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Category = nil
	if _, err := Generate(cfg); err == nil {
		t.Error("nil category accepted")
	}
	cfg = smallConfig(1)
	cfg.NumSources = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("single source accepted")
	}
	cfg = smallConfig(1)
	cfg.MinEntities = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero entities accepted")
	}
	cfg = smallConfig(1)
	cfg.SharedPresence = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero presence accepted")
	}
}

func TestGenerateHeterogeneousNames(t *testing.T) {
	d, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Group matchable properties by ref; at least one group must contain
	// two different surface names (otherwise matching is trivial).
	byRef := map[string]map[string]bool{}
	for _, p := range d.Props {
		if p.Ref == "" {
			continue
		}
		if byRef[p.Ref] == nil {
			byRef[p.Ref] = map[string]bool{}
		}
		byRef[p.Ref][strings.ToLower(p.Name)] = true
	}
	heterogeneous := 0
	for _, names := range byRef {
		if len(names) > 1 {
			heterogeneous++
		}
	}
	if heterogeneous < len(byRef)/2 {
		t.Errorf("only %d/%d reference properties have heterogeneous names", heterogeneous, len(byRef))
	}
}

func TestPresetShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full camera preset generation in -short mode")
	}
	d, err := Generate(CamerasConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summary()
	if s.Sources != 24 {
		t.Errorf("cameras sources = %d, want 24", s.Sources)
	}
	// Paper: >3200 properties, ~9200 matching pairs, 100 entities/source.
	if s.Properties < 2800 || s.Properties > 4000 {
		t.Errorf("cameras properties = %d, want ≈3200", s.Properties)
	}
	if s.MatchingPairs < 7500 || s.MatchingPairs > 11500 {
		t.Errorf("cameras matching pairs = %d, want ≈9200", s.MatchingPairs)
	}
	if s.Entities != 2400 {
		t.Errorf("cameras entities = %d, want 2400 (100×24 balanced)", s.Entities)
	}
}

func TestWDCPresetsImbalanced(t *testing.T) {
	for _, cfg := range []GenConfig{HeadphonesConfig(1), PhonesConfig(1), TVsConfig(1)} {
		d, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		// Per-source entity counts should differ (imbalanced setting).
		perSrc := map[string]map[string]bool{}
		for _, in := range d.Instances {
			if perSrc[in.Source] == nil {
				perSrc[in.Source] = map[string]bool{}
			}
			perSrc[in.Source][in.Entity] = true
		}
		counts := map[int]bool{}
		for _, ents := range perSrc {
			counts[len(ents)] = true
		}
		if len(counts) < 2 {
			t.Errorf("%s: all sources have identical entity counts; want imbalance", cfg.Name)
		}
	}
}

func TestLite(t *testing.T) {
	lite := Lite(CamerasConfig(1))
	if lite.NumSources != 8 || lite.NoiseProps != 24 {
		t.Errorf("Lite cameras = %+v", lite)
	}
	if !strings.HasSuffix(lite.Name, "-lite") {
		t.Errorf("Lite name = %q", lite.Name)
	}
	d, err := Generate(lite)
	if err != nil {
		t.Fatal(err)
	}
	if d.Summary().Properties > 800 {
		t.Errorf("lite cameras too large: %d properties", d.Summary().Properties)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d, _ := Generate(smallConfig(5))
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Props) != len(d.Props) || len(got.Instances) != len(d.Instances) {
		t.Error("JSON round trip changed dataset shape")
	}
	for i := range d.Props {
		if got.Props[i] != d.Props[i] {
			t.Fatalf("prop %d changed in round trip", i)
		}
	}
}

func TestReadJSONInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"name":""}`))); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestInstancesCSVRoundTrip(t *testing.T) {
	d, _ := Generate(smallConfig(6))
	var buf bytes.Buffer
	if err := d.WriteInstancesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(d.Instances)+1 || strings.Join(rows[0], ",") != "source,entity,property,value" {
		t.Fatalf("CSV round trip: %d rows (header %v), want a header and %d instances", len(rows), rows[0], len(d.Instances))
	}
	for i, row := range rows[1:] {
		got := Instance{Source: row[0], Entity: row[1], Property: row[2], Value: row[3]}
		if got != d.Instances[i] {
			t.Fatalf("instance %d changed: %v vs %v", i, got, d.Instances[i])
		}
	}
}

func TestFromInstances(t *testing.T) {
	ins := []Instance{
		{Source: "a", Entity: "e1", Property: "p1", Value: "v1"},
		{Source: "a", Entity: "e1", Property: "p2", Value: "v2"},
		{Source: "b", Entity: "e2", Property: "p1", Value: "v3"},
	}
	d, err := FromInstances("user", "misc", ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sources) != 2 || len(d.Props) != 3 {
		t.Errorf("FromInstances shape: %d sources, %d props", len(d.Sources), len(d.Props))
	}
	for _, p := range d.Props {
		if p.Ref != "" {
			t.Error("FromInstances should produce unlabeled properties")
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	d, _ := Generate(smallConfig(8))
	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Instances) != len(d.Instances) {
		t.Error("SaveDir/LoadDir round trip failed")
	}
}
