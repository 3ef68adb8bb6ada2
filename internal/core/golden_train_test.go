package core

import (
	"bytes"
	"context"
	"hash/crc32"
	"os"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/mathx"
)

// goldenTrainCRC pins the serialized v3 model produced by the full
// cameras-lite training pipeline (seed 1, {16, 8} hidden) on the flat
// training kernel — the same bytes the retired chunked Network.Fit path
// produced. Every worker count, 0 (all CPUs) included, must reproduce
// them; a drift means the training arithmetic changed, which is a
// model-format change, not an optimisation.
//
// Regenerate (only after a deliberate change to training arithmetic):
// LEAPME_WRITE_GOLDEN=1 go test ./internal/core -run TrainGolden -v
const goldenTrainCRC = 0x9c29ed4e

// goldenTrainModel trains the cameras-lite pipeline through core.Train at
// the given worker count and serializes the model.
func goldenTrainModel(t *testing.T, workers int) []byte {
	t.Helper()
	d, err := dataset.Generate(dataset.Lite(dataset.CamerasConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.Hidden = []int{16, 8}
	opts.Workers = workers
	m, err := NewMatcher(getStore(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.ComputeFeatures(ctx, d); err != nil {
		t.Fatal(err)
	}
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(1))
	if len(pairs) == 0 {
		t.Fatal("no training pairs")
	}
	if _, err := m.Train(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainGoldenDeterminismKernelVsFit is the golden gate of the one
// trainer: the flat TrainKernel at workers 0, 1 and 8 serializes the
// cameras-lite model to the same bytes, and those bytes carry the
// committed CRC that the retired chunked Fit path produced.
func TestTrainGoldenDeterminismKernelVsFit(t *testing.T) {
	if testing.Short() {
		t.Skip("full training pipeline ×3")
	}
	ref := goldenTrainModel(t, 1)
	for _, workers := range []int{0, 8} {
		if got := goldenTrainModel(t, workers); !bytes.Equal(got, ref) {
			t.Fatalf("kernel-w%d: model bytes differ from workers=1", workers)
		}
	}
	crc := crc32.ChecksumIEEE(ref)
	if os.Getenv("LEAPME_WRITE_GOLDEN") == "1" {
		t.Logf("golden train CRC: %#08x (update goldenTrainCRC)", crc)
		return
	}
	if crc != goldenTrainCRC {
		t.Errorf("model CRC = %08x, want %08x — training arithmetic drifted", crc, goldenTrainCRC)
	}
}
