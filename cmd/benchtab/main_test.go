package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestBenchtabDatasetsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding training in -short mode")
	}
	// The cheapest artefact: dataset statistics only.
	if err := run("datasets", "lite", 1, 1, "headphones", 8, false); err != nil {
		t.Fatal(err)
	}
}

func TestBenchtabUnknownTable(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding training in -short mode")
	}
	if err := run("bogus", "lite", 1, 1, "headphones", 8, false); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestBenchParallelMatrixSmoke runs the parallel suite at GOMAXPROCS=2
// with the 1-iteration budget — the CI gate that the bench matrix
// plumbing works on multi-proc settings: degraded_env must be false, the
// matrix must be the complete grid, every cell must have measured
// throughput, and -stamp=false must keep the
// timestamp out of the report.
func TestBenchParallelMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding training in -short mode")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	out := filepath.Join(t.TempDir(), "BENCH_parallel_smoke.json")
	if err := runBench("parallel", out, 1, 8, 2, true, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DegradedEnv {
		t.Error("degraded_env true at GOMAXPROCS=2")
	}
	if rep.Timestamp != "" {
		t.Errorf("-stamp=false leaked timestamp %q into the report", rep.Timestamp)
	}
	procs, workers, batches := matrixDims()
	want := len(procs) * len(workers) * len(batches)
	if len(rep.Matrix) != want {
		t.Fatalf("matrix has %d cells, want %d (%v procs × %v workers × %v batches)",
			len(rep.Matrix), want, procs, workers, batches)
	}
	for i, c := range rep.Matrix {
		if c.PairsPerSec <= 0 || c.NsPerOp <= 0 || c.Iterations < 1 {
			t.Errorf("matrix cell %d unmeasured: %+v", i, c)
		}
	}
	if len(rep.Results) == 0 {
		t.Error("parallel suite emitted no results")
	}
	if rep.Derived["matrix_best_pairs_per_sec"] <= 0 {
		t.Error("derived matrix_best_pairs_per_sec missing")
	}
}

func TestBenchtabBadInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding training in -short mode")
	}
	if err := run("datasets", "huge", 1, 1, "headphones", 8, false); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run("datasets", "lite", 1, 1, "bicycles", 8, false); err == nil {
		t.Error("unknown dataset accepted")
	}
}
