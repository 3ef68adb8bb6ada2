package nn

import (
	"context"
	"testing"
)

// BenchmarkTrainKernel times the one trainer on a fixed workload — 3111
// examples of dim 101 through a 101→128→64→2 ReLU net, two epochs — with
// one worker per CPU; -cpu 1,2 compares worker counts.

var benchCfg = Config{InDim: 101, Hidden: []int{128, 64}, Out: 2, Activation: ActReLU, Seed: 1}

func BenchmarkTrainKernel(b *testing.B) {
	_, flat, ys := tkDataset(3111, 101, 2, 1)
	tc := TrainConfig{Schedule: []Phase{{Epochs: 2, LR: 1e-3}}, BatchSize: 32, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := New(benchCfg)
		k, err := NewTrainKernel(n, tc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.Fit(context.Background(), flat, ys); err != nil {
			b.Fatal(err)
		}
	}
}
