package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/features"
)

// matrixCell is one point of the scorer throughput matrix: w concurrent
// scorer clones, each running batch-major ScoreBatch over b pairs, at a
// given GOMAXPROCS. One op = every worker finishing one batch.
type matrixCell struct {
	Procs       int     `json:"gomaxprocs"`
	Workers     int     `json:"workers"`
	Batch       int     `json:"batch"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	PairsPerSec float64 `json:"pairs_per_sec"`
}

// matrixDims returns the axes of the bench matrix for the current
// runtime: GOMAXPROCS values up to the process setting, worker counts,
// and batch sizes. The smoke test recomputes these to assert the emitted
// matrix is complete.
func matrixDims() (procs, workers, batches []int) {
	maxProcs := runtime.GOMAXPROCS(0)
	seen := map[int]bool{}
	for _, p := range []int{1, 2, 4, maxProcs} {
		if p >= 1 && p <= maxProcs && !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	return procs, []int{1, 2, 4}, []int{8, 32}
}

// benchMatrix appends the GOMAXPROCS × workers × batch scorer throughput
// matrix to the report. Quick mode runs one iteration per cell;
// otherwise each cell runs for at least ~200ms.
func benchMatrix(fx *benchFixture, rep *benchReport, quick bool) error {
	m, err := core.NewMatcher(fx.store, core.DefaultOptions(fx.seed))
	if err != nil {
		return err
	}
	if err := m.ReadModel(bytes.NewReader(fx.model)); err != nil {
		return err
	}
	sc, err := m.NewScorer()
	if err != nil {
		return err
	}

	const maxBatch = 32
	values := fx.data.InstancesByProperty()
	var as, bs []*features.Prop
	dataset.CrossSourcePairs(fx.data.Props, func(a, b dataset.Property) bool {
		as = append(as, sc.Featurize(a.Name, values[a.Key()]))
		bs = append(bs, sc.Featurize(b.Name, values[b.Key()]))
		return len(as) < maxBatch
	})
	if len(as) < maxBatch {
		return fmt.Errorf("fixture has only %d cross-source pairs, want %d", len(as), maxBatch)
	}

	// runCell executes iters rounds: each of w workers scores one b-pair
	// batch per round on its own clone. Returns wall time for all rounds.
	runCell := func(w, b, iters int) (time.Duration, error) {
		clones := make([]*core.Scorer, w)
		for i := range clones {
			clones[i] = sc.Clone()
		}
		dsts := make([][]float64, w)
		for i := range dsts {
			dsts[i] = make([]float64, b)
		}
		errs := make([]error, w)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < w; i++ {
			wg.Add(1)
			//lint:allow guardgo bench worker: a panic should crash benchtab, not be isolated into a report
			go func(i int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					if err := clones[i].ScoreBatch(dsts[i], as[:b], bs[:b]); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		d := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return d, nil
	}

	measure := func(procs, w, b int) (matrixCell, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		iters := 1
		d, err := runCell(w, b, iters) // warm clones, then measure
		if err != nil {
			return matrixCell{}, err
		}
		if !quick {
			// Scale to ~200ms of work per cell for stable numbers.
			if per := d / time.Duration(iters); per > 0 {
				if n := int(200 * time.Millisecond / per); n > 1 {
					iters = n
				}
			}
			if d, err = runCell(w, b, iters); err != nil {
				return matrixCell{}, err
			}
		}
		ns := float64(d.Nanoseconds()) / float64(iters)
		cell := matrixCell{
			Procs: procs, Workers: w, Batch: b,
			Iterations: iters, NsPerOp: ns,
		}
		if ns > 0 {
			cell.PairsPerSec = float64(w*b) * 1e9 / ns
		}
		return cell, nil
	}

	procsSet, workersSet, batchSet := matrixDims()
	for _, p := range procsSet {
		for _, w := range workersSet {
			for _, b := range batchSet {
				cell, err := measure(p, w, b)
				if err != nil {
					return err
				}
				rep.Matrix = append(rep.Matrix, cell)
			}
		}
	}
	var best float64
	for _, c := range rep.Matrix {
		if c.PairsPerSec > best {
			best = c.PairsPerSec
		}
	}
	rep.Derived["matrix_best_pairs_per_sec"] = best
	fmt.Fprintf(os.Stderr, "bench matrix: %d cells, best %.0f pairs/sec\n", len(rep.Matrix), best)
	return nil
}
