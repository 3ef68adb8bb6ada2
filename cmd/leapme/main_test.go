package main

import (
	"context"
	"path/filepath"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/domain"
)

func writeTestData(t *testing.T, dir string) string {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name:           "cli-test",
		Category:       domain.Headphones(),
		NumSources:     4,
		SharedPresence: 0.8,
		CanonicalBias:  0.5,
		NoiseProps:     4,
		MinEntities:    5,
		MaxEntities:    8,
		MissingRate:    0.3,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, d.Name)
	if err := d.SaveDir(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCLIEndToEnd drives embed → match → eval → cluster through the
// command implementations with a real temp workspace.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataDir := writeTestData(t, dir)
	storePath := filepath.Join(dir, "store.bin")

	if err := cmdEmbed([]string{
		"-out", storePath, "-dim", "16", "-epochs", "6",
		"-sentences", "25", "-categories", "headphones",
	}); err != nil {
		t.Fatalf("embed: %v", err)
	}

	if err := cmdMatch(context.Background(), []string{
		"-data", dataDir, "-store", storePath,
		"-train", "source00,source01,source02", "-top", "5",
	}); err != nil {
		t.Fatalf("match: %v", err)
	}

	if err := cmdMatch(context.Background(), []string{
		"-data", dataDir, "-store", storePath,
		"-train", "source00,source01,source02", "-top", "3", "-explain",
	}); err != nil {
		t.Fatalf("match -explain: %v", err)
	}

	if err := cmdEval(context.Background(), []string{
		"-data", dataDir, "-store", storePath, "-frac", "0.5", "-runs", "1",
	}); err != nil {
		t.Fatalf("eval: %v", err)
	}

	if err := cmdCluster(context.Background(), []string{
		"-data", dataDir, "-store", storePath,
		"-train", "source00,source01", "-scheme", "star",
	}); err != nil {
		t.Fatalf("cluster: %v", err)
	}
}

func TestCLIMissingFlags(t *testing.T) {
	if err := cmdMatch(context.Background(), nil); err == nil {
		t.Error("match without flags accepted")
	}
	if err := cmdEval(context.Background(), nil); err == nil {
		t.Error("eval without flags accepted")
	}
	if err := cmdCluster(context.Background(), nil); err == nil {
		t.Error("cluster without flags accepted")
	}
}

func TestCLIBadInputs(t *testing.T) {
	dir := t.TempDir()
	dataDir := writeTestData(t, dir)
	storePath := filepath.Join(dir, "store.bin")
	if err := cmdEmbed([]string{
		"-out", storePath, "-dim", "8", "-epochs", "3",
		"-sentences", "15", "-categories", "headphones",
	}); err != nil {
		t.Fatal(err)
	}
	// Unknown training source.
	if err := cmdMatch(context.Background(), []string{
		"-data", dataDir, "-store", storePath, "-train", "nosuch",
	}); err == nil {
		t.Error("unknown training source accepted")
	}
	// All sources in training → nothing to test.
	if err := cmdMatch(context.Background(), []string{
		"-data", dataDir, "-store", storePath,
		"-train", "source00,source01,source02,source03",
	}); err == nil {
		t.Error("empty test set accepted")
	}
	// Bad feature string.
	if err := cmdEval(context.Background(), []string{
		"-data", dataDir, "-store", storePath, "-features", "bogus",
	}); err == nil {
		t.Error("bad feature config accepted")
	}
	// Unknown category in embed.
	if err := cmdEmbed([]string{"-out", storePath, "-categories", "bicycles"}); err == nil {
		t.Error("unknown category accepted")
	}
	// Unknown clustering scheme.
	if err := cmdCluster(context.Background(), []string{
		"-data", dataDir, "-store", storePath, "-train", "source00,source01",
		"-scheme", "magic",
	}); err == nil {
		t.Error("unknown scheme accepted")
	}
	// Missing store file.
	if err := cmdEval(context.Background(), []string{
		"-data", dataDir, "-store", filepath.Join(dir, "absent.bin"),
	}); err == nil {
		t.Error("missing store accepted")
	}
}
