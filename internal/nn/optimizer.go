package nn

import "fmt"

// Optimizer selects the update rule TrainKernel applies after each
// mini-batch and carries its hyper-parameters. The kernel keeps the
// optimizer state (moments, velocities) in its own flat slabs, so an
// Optimizer value is never mutated by training and may be reused.
type Optimizer interface {
	// Name identifies the optimizer in logs and serialized models.
	Name() string
}

// SGD selects plain stochastic gradient descent, optionally with
// classical momentum. The paper's reference implementation uses Adam, but
// SGD is kept for ablations.
type SGD struct {
	Momentum float64
}

// NewSGD returns an SGD optimizer with the given momentum (0 disables it).
func NewSGD(momentum float64) *SGD { return &SGD{Momentum: momentum} }

// Name implements Optimizer.
func (s *SGD) Name() string { return fmt.Sprintf("sgd(momentum=%g)", s.Momentum) }

// Adam selects the Adam update rule (Kingma & Ba 2015) and carries its
// hyper-parameters; it is the default for LEAPME training, matching the
// Keras default the paper's implementation relied on.
type Adam struct {
	Beta1, Beta2, Eps float64
}

// NewAdam returns Adam with β1=0.9, β2=0.999, ε=1e-8.
func NewAdam() *Adam { return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8} }

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }
