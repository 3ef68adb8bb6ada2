package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteJSON serialises the dataset as indented JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("dataset: encoding %s: %w", d.Name, err)
	}
	return nil
}

// decodeJSON decodes a dataset without validating it.
func decodeJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decoding: %w", err)
	}
	return &d, nil
}

// ReadJSON deserialises and strictly validates a dataset written by
// WriteJSON; the first malformed record rejects the whole dataset. Use
// ReadJSONQuarantine to salvage the valid remainder instead.
func ReadJSON(r io.Reader) (*Dataset, error) {
	d, err := decodeJSON(r)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveDir writes the dataset to dir as dataset.json plus an instances.csv
// for inspection with standard tools.
func (d *Dataset) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating %s: %w", dir, err)
	}
	jf, err := os.Create(filepath.Join(dir, "dataset.json"))
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer jf.Close()
	if err := d.WriteJSON(jf); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, "instances.csv"))
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer cf.Close()
	return d.WriteInstancesCSV(cf)
}

// LoadDir reads a dataset saved with SaveDir.
func LoadDir(dir string) (*Dataset, error) {
	f, err := os.Open(filepath.Join(dir, "dataset.json"))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

// WriteInstancesCSV writes the (source, entity, property, value) tuples as
// CSV with a header row.
func (d *Dataset) WriteInstancesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"source", "entity", "property", "value"}); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for _, in := range d.Instances {
		if err := cw.Write([]string{in.Source, in.Entity, in.Property, in.Value}); err != nil {
			return fmt.Errorf("dataset: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// FromInstances builds an unlabeled dataset (no ground-truth Refs) from raw
// instance tuples — the entry point for matching user-supplied data where
// no reference alignment exists.
func FromInstances(name, category string, instances []Instance) (*Dataset, error) {
	d := &Dataset{Name: name, Category: category, Instances: instances}
	srcSeen := map[string]bool{}
	propSeen := map[Key]bool{}
	for _, in := range instances {
		if !srcSeen[in.Source] {
			srcSeen[in.Source] = true
			d.Sources = append(d.Sources, in.Source)
		}
		k := Key{Source: in.Source, Name: in.Property}
		if !propSeen[k] {
			propSeen[k] = true
			d.Props = append(d.Props, Property{Source: in.Source, Name: in.Property})
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
