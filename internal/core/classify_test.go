package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/guard"
	"leapme/internal/mathx"
	"leapme/internal/nn"
)

// quickMatcher trains a matcher on d for one epoch: the classification
// contracts hold for any weights, and a short fit keeps the suites fast
// under -race.
func quickMatcher(t *testing.T, d *dataset.Dataset) *Matcher {
	t.Helper()
	opts := DefaultOptions(4)
	opts.Schedule = []nn.Phase{{Epochs: 1, LR: 1e-3}}
	opts.Workers = 1
	m, err := NewMatcher(getStore(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ComputeFeatures(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(context.Background(), TrainingPairs(d.Props, 2, mathx.NewRand(4))); err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleScore scores one pair alone: a one-pair Scorer.Score, the path
// Matcher.Score and the per-pair fallback take. The rounds must match it
// bit for bit whatever chunk and lane a pair lands in. Every score is a
// kernel batch, so the per-layer oracle in nn pins every lane of the
// forward pass itself (TestKernelBatchDeterminism); this reference
// checks the rounds' gathering, chunking and ordering.
func oracleScore(t *testing.T, m *Matcher, a, b dataset.Key) float64 {
	t.Helper()
	pa, err := m.prop(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.prop(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.sc.Score(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMatchWhereDeterminismAcrossWorkerCounts: classification yields the
// same (A, B, score bits) sequence as the per-pair oracle at every
// worker count, across several rounds with a partial last chunk. The
// name keeps it inside `make test-determinism` (GOMAXPROCS 1 and 4).
func TestMatchWhereDeterminismAcrossWorkerCounts(t *testing.T) {
	d := smallDataset(t, 4)
	m := quickMatcher(t, d)
	// The evaluation protocol's filter: skip pairs wholly inside the
	// first two sources.
	train := map[string]bool{d.Sources[0]: true, d.Sources[1]: true}
	include := func(a, b dataset.Property) bool { return !(train[a.Source] && train[b.Source]) }

	var want []ScoredPair
	dataset.CrossSourcePairs(d.Props, func(a, b dataset.Property) bool {
		if include(a, b) {
			s := oracleScore(t, m, a.Key(), b.Key())
			want = append(want, ScoredPair{A: a.Key(), B: b.Key(), Score: s, Match: s >= m.opts.Threshold})
		}
		return true
	})
	if len(want) <= 2*matchRoundChunks*matchChunk || len(want)%matchChunk == 0 {
		t.Fatalf("%d test pairs: want several rounds at 1 worker and a partial last chunk", len(want))
	}
	for _, w := range []int{0, 1, 2, 8} {
		m.opts.Workers = w
		var got []ScoredPair
		if err := m.MatchWhere(context.Background(), d.Props, include, func(sp ScoredPair) {
			got = append(got, sp)
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i].A != want[i].A || got[i].B != want[i].B {
				t.Fatalf("workers=%d: pair %d is %s × %s, want %s × %s", w, i, got[i].A, got[i].B, want[i].A, want[i].B)
			}
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) || got[i].Match != want[i].Match {
				t.Fatalf("workers=%d: %s × %s scored %x, want %x", w, got[i].A, got[i].B,
					math.Float64bits(got[i].Score), math.Float64bits(want[i].Score))
			}
		}
		if rep := m.LastReport(); rep.Units() != len(want) || rep.Failed() != 0 {
			t.Fatalf("workers=%d: report %s, want %d units ok", w, rep, len(want))
		}
	}
}

// TestMatchWhereChunkFailure corrupts one property's features so every
// batch containing it panics: exactly that property's pairs must fail,
// each recorded as its own unit, and every other pair must still arrive
// in order with its oracle score.
func TestMatchWhereChunkFailure(t *testing.T) {
	d := smallDataset(t, 4)
	m := quickMatcher(t, d)
	bad := d.Props[len(d.Props)/2].Key()
	type pair struct {
		a, b  dataset.Key
		score float64
	}
	var want []pair
	badPairs := 0
	dataset.CrossSourcePairs(d.Props, func(a, b dataset.Property) bool {
		if a.Key() == bad || b.Key() == bad {
			badPairs++
		} else {
			want = append(want, pair{a.Key(), b.Key(), oracleScore(t, m, a.Key(), b.Key())})
		}
		return true
	})
	if badPairs == 0 {
		t.Fatal("corrupted property takes part in no pair")
	}
	corrupt := *m.props[bad]
	corrupt.Vec = corrupt.Vec[:1]
	m.props[bad] = &corrupt

	for _, w := range []int{1, 2} {
		m.opts.Workers = w
		var got []pair
		if err := m.MatchAll(context.Background(), d.Props, func(sp ScoredPair) {
			got = append(got, pair{sp.A, sp.B, sp.Score})
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs arrived, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i].a != want[i].a || got[i].b != want[i].b || math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
				t.Fatalf("workers=%d: pair %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
		rep := m.LastReport()
		if rep.Failed() != badPairs || rep.Units() != len(want)+badPairs {
			t.Fatalf("workers=%d: report %s, want %d of %d failed", w, rep, badPairs, len(want)+badPairs)
		}
		for _, ue := range rep.Errors() {
			var pe *guard.PanicError
			if !strings.Contains(ue.Unit, bad.String()) || !strings.Contains(ue.Unit, " × ") || !errors.As(ue.Err, &pe) {
				t.Fatalf("workers=%d: recorded failure %q: %v, want a panic on a pair of %s", w, ue.Unit, ue.Err, bad)
			}
		}
	}
}

// TestMatchWhereAllocsPerPair pins classification at zero allocations
// per pair: a call over 8 sources allocates the same as one over 4 of
// them, up to a small constant, although it scores several times as
// many pairs. Both fit in one round at 8 workers, so the per-call cost —
// round buffers and the worker pool — is the same. The workers' scorer
// clones persist across calls, so after warm-up runs their scratch no
// longer grows.
func TestMatchWhereAllocsPerPair(t *testing.T) {
	d, err := dataset.Generate(dataset.GenConfig{
		Name:           "cam-allocs",
		Category:       domain.Cameras(),
		NumSources:     8,
		SharedPresence: 0.8,
		CanonicalBias:  0.55,
		MinEntities:    10,
		MaxEntities:    15,
		MissingRate:    0.3,
		Seed:           6,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := quickMatcher(t, d)
	m.opts.Workers = 8
	// The first 10 properties of each source keep both catalogs in one
	// round.
	perSource := map[string]int{}
	var props4, props8 []dataset.Property
	for _, p := range d.Props {
		if perSource[p.Source]++; perSource[p.Source] > 10 {
			continue
		}
		props8 = append(props8, p)
		if p.Source == d.Sources[0] || p.Source == d.Sources[1] || p.Source == d.Sources[2] || p.Source == d.Sources[3] {
			props4 = append(props4, p)
		}
	}
	count := func(props []dataset.Property) (pairs int) {
		dataset.CrossSourcePairs(props, func(a, b dataset.Property) bool { pairs++; return true })
		return pairs
	}
	n4, n8 := count(props4), count(props8)
	if round := m.opts.Workers * matchRoundChunks * matchChunk; n8 > round || n4 < m.opts.Workers*matchChunk || 3*n4 > n8 {
		t.Fatalf("pair counts %d / %d: want both within one %d-pair round, all workers busy, and 3× the pairs on 8 sources", n4, n8, round)
	}
	allocs := func(props []dataset.Property) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := m.MatchAll(context.Background(), props, func(ScoredPair) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i := 0; i < 3; i++ {
		allocs(props8)
	}
	a4, a8 := allocs(props4), allocs(props8)
	if a8-a4 > 8 || a4-a8 > 8 {
		t.Fatalf("MatchAll allocates %v times on %d pairs and %v times on %d pairs: allocations grow with the pair count", a4, n4, a8, n8)
	}
	t.Logf("MatchAll allocations: %v on %d pairs, %v on %d pairs", a4, n4, a8, n8)
}
