package nn

import "errors"

// Phase is one stage of the learning-rate schedule.
type Phase struct {
	Epochs int
	LR     float64
}

// ErrDiverged reports that training kept producing non-finite losses or
// exploding weights after exhausting the per-phase retry budget.
var ErrDiverged = errors.New("nn: training diverged")

// TrainConfig controls TrainKernel.Fit.
type TrainConfig struct {
	// Schedule is the staged learning-rate plan. The paper's schedule is
	// 10 epochs at 1e-3, then 5 at 1e-4, then 5 at 1e-5.
	Schedule []Phase
	// BatchSize is the mini-batch size (paper: 32).
	BatchSize int
	// Seed drives batch shuffling.
	Seed int64
	// OnEpoch, if non-nil, receives (epochIndex, meanLoss) after each
	// epoch — useful for logging and learning curves.
	OnEpoch func(epoch int, loss float64)
	// Workers is how many pool goroutines compute a mini-batch's chunk
	// gradients and optimizer step, with the calling goroutine taking
	// part; 0 (the default) and negative values mean one per CPU.
	// The chunk structure and the reduction order depend only on the
	// batch size, so every value trains the same network down to the
	// byte — Workers only changes wall-clock time.
	Workers int

	// MaxPhaseRetries bounds divergence recoveries per schedule phase
	// (default 3). When an epoch produces a non-finite loss or the
	// parameters exceed ExplodeThreshold, the network rolls back to the
	// snapshot taken at the start of the phase, the optimizer state is
	// reset, and the phase restarts with LR scaled by LRBackoff. Beyond
	// the budget Fit fails with ErrDiverged.
	MaxPhaseRetries int
	// LRBackoff scales the phase learning rate on each recovery
	// (default 0.1). Values outside (0, 1) fall back to the default.
	LRBackoff float64
	// ExplodeThreshold is the parameter magnitude treated as divergence
	// (default 1e8). Healthy training of standardized features keeps
	// weights within single digits; 1e8 only trips on a genuine runaway.
	ExplodeThreshold float64
	// OnRecovery, if non-nil, observes each rollback: the phase index,
	// the retry number within the phase (1-based), the backed-off LR the
	// phase restarts with, and what tripped the detector.
	OnRecovery func(phase, retry int, lr float64, reason string)
}

// PaperSchedule returns the LR schedule of Section IV-D.
func PaperSchedule() []Phase {
	return []Phase{{Epochs: 10, LR: 1e-3}, {Epochs: 5, LR: 1e-4}, {Epochs: 5, LR: 1e-5}}
}
