// Package chaos is a deterministic, seeded fault injector for the
// serving layer. A *chaos.Injector is armed with a set of Fault specs —
// scorer panics, batch latency, stalled workers, injected errors,
// corrupted model bytes — and wired into production code through
// build-tag-free runtime hooks: the hooked code calls Inject (or wraps a
// reader with Reader) unconditionally, and a nil injector is completely
// inert, so the hooks cost one nil check when chaos is off.
//
// Determinism is the point: every stochastic firing decision draws from
// one seeded *rand.Rand (mathx.NewRand) under a mutex, and the
// Skip/Count windows are plain counters, so a fixed seed plus a fixed
// visit sequence reproduces the exact same fault schedule. The chaos
// test suite (`make test-chaos`) leans on this to assert precise
// outcomes — "the first batch stalls, the second does not" — instead of
// flaky probabilistic ones.
//
// The package is in the determinism analyzer's scope (see
// internal/analysis/determinism): no wall-clock reads, no global rand.
// Injected delays use time.Sleep, which the analyzer permits because a
// sleep delays work without changing any computed value; the one timer
// (the Stall safety cap) is annotated for the same reason. A Stall is
// always bounded — Disarm wakes it immediately, and Fault.Delay (or
// defaultStallCap when unset) caps it otherwise.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"leapme/internal/mathx"
)

// Point names a hook site. The serving layer's sites are declared here
// so injector configs and hooked code agree on the vocabulary; tests may
// mint their own.
type Point string

const (
	// PointScore fires once per pair, inside that pair's own guard
	// unit, as the batcher gathers the pair into its model run: a Panic
	// here must be isolated to the one pair (the guard invariant), an
	// Error fails just that pair; either way the pair skips the batched
	// scorer while the rest of its run is scored.
	PointScore Point = "score"
	// PointBatch fires at the start of each micro-batch execution, on
	// the worker goroutine: Delay/Stall here simulate a slow or hung
	// worker holding a scorer clone.
	PointBatch Point = "batch"
	// PointReload fires while the registry reads model bytes during
	// Load/Reload: a Corrupt fault flips bits so the CRC check rejects
	// the file — the old snapshot must keep serving.
	PointReload Point = "reload"
)

// Mode is what a fault does when it fires.
type Mode int

const (
	// Panic panics with a *PanicValue. Only inject at points that run
	// under guard isolation (PointScore); elsewhere it crashes on
	// purpose.
	Panic Mode = iota
	// Delay sleeps for Fault.Delay, then lets the visit proceed.
	Delay
	// Stall blocks until the injector is disarmed or Fault.Delay has
	// elapsed. A zero Delay is capped at defaultStallCap so a
	// misconfigured fault that never sees Disarm cannot hang a worker
	// forever.
	Stall
	// Error makes Inject return an error wrapping ErrInjected.
	Error
	// Corrupt makes Reader wrap its argument in a bit-flipping reader.
	// Inject ignores Corrupt faults; Reader ignores every other mode.
	Corrupt
)

func (m Mode) String() string {
	switch m {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	case Error:
		return "error"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Fault is one armed failure: where it fires, what it does, and a
// deterministic window of visits it applies to.
type Fault struct {
	Point Point
	Mode  Mode
	// Prob is the per-visit firing probability. Outside (0,1) the fault
	// fires on every visit in its window — the fully deterministic
	// setting the chaos tests prefer.
	Prob float64
	// Delay is the sleep for Delay mode and the cap for Stall mode
	// (defaultStallCap when zero — a stall is always bounded).
	Delay time.Duration
	// Skip lets the first Skip visits to the point pass unharmed (e.g.
	// skip the startup Load so only the Reload is corrupted).
	Skip int
	// Count caps how many times the fault fires (0 = unlimited).
	Count int
}

// ErrInjected is the sentinel wrapped by every Error-mode injection.
var ErrInjected = errors.New("chaos: injected error")

// PanicValue is what Panic-mode faults panic with, so guard reports
// attribute the failure to injection rather than a real scorer bug.
type PanicValue struct{ Point Point }

func (p *PanicValue) String() string { return fmt.Sprintf("chaos: injected panic at %s", p.Point) }

// Injector holds armed faults and the seeded decision source. The zero
// value is not useful; build with New. All methods are safe for
// concurrent use and safe on a nil receiver (inert).
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	faults   []*armedFault
	disarmed bool
	// disarm is closed by Disarm (and replaced by Rearm) so stalled
	// visits wake immediately instead of polling.
	disarm chan struct{}
	visits map[Point]int
	fired  map[Point]int
}

type armedFault struct {
	Fault
	seen  int // visits to the point observed by this fault
	count int // times this fault fired
}

// New arms the faults over one generator seeded with seed.
//
//lint:allow deadexport production never arms faults; internal/serve's chaos_test.go builds every Injector through New
func New(seed int64, faults ...Fault) *Injector {
	in := &Injector{
		rng:    mathx.NewRand(seed),
		disarm: make(chan struct{}),
		visits: map[Point]int{},
		fired:  map[Point]int{},
	}
	for _, f := range faults {
		in.faults = append(in.faults, &armedFault{Fault: f})
	}
	return in
}

// decide records one visit to p and returns the first armed fault whose
// window and coin admit it, restricted to the given modes.
func (in *Injector) decide(p Point, modes ...Mode) *armedFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.visits[p]++
	if in.disarmed {
		return nil
	}
	for _, f := range in.faults {
		if f.Point != p || !modeIn(f.Mode, modes) {
			continue
		}
		f.seen++
		if f.seen <= f.Skip {
			continue
		}
		if f.Count > 0 && f.count >= f.Count {
			continue
		}
		if 0 < f.Prob && f.Prob < 1 && in.rng.Float64() >= f.Prob {
			continue
		}
		f.count++
		in.fired[p]++
		return f
	}
	return nil
}

func modeIn(m Mode, modes []Mode) bool {
	for _, x := range modes {
		if x == m {
			return true
		}
	}
	return false
}

// Inject visits point p and executes whatever fault fires there: Panic
// panics with a *PanicValue, Delay sleeps, Stall sleeps until Disarm (or
// the fault's Delay cap), Error returns a wrapped ErrInjected. Corrupt
// faults are Reader's business and never fire here. Inert on nil.
func (in *Injector) Inject(p Point) error {
	if in == nil {
		return nil
	}
	f := in.decide(p, Panic, Delay, Stall, Error)
	if f == nil {
		return nil
	}
	switch f.Mode {
	case Panic:
		panic(&PanicValue{Point: p})
	case Delay:
		time.Sleep(f.Delay)
	case Stall:
		bound := f.Delay
		if bound <= 0 {
			bound = defaultStallCap
		}
		//lint:allow determinism the stall cap timer bounds injected downtime and never feeds a computed value
		t := time.NewTimer(bound)
		select {
		case <-in.disarmSignal():
		case <-t.C:
		}
		t.Stop()
	case Error:
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return nil
}

// Reader visits point p and, when a Corrupt fault fires, wraps r so that
// the bytes read through it are deterministically bit-flipped (every
// corruptStride-th byte, starting past the header prefix, has its low
// bit inverted — enough to fail any CRC). Otherwise r is returned
// untouched. Inert on nil.
func (in *Injector) Reader(p Point, r io.Reader) io.Reader {
	if in == nil {
		return r
	}
	if f := in.decide(p, Corrupt); f != nil {
		return &corruptingReader{r: r}
	}
	return r
}

const (
	// corruptSkip leaves the leading bytes (magic + version header)
	// intact so corruption is caught by the checksum, the interesting
	// path, rather than the magic check.
	corruptSkip = 16
	// corruptStride spaces the flipped bytes.
	corruptStride = 97
)

type corruptingReader struct {
	r   io.Reader
	off int
}

func (c *corruptingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	for i := 0; i < n; i++ {
		pos := c.off + i
		if pos >= corruptSkip && (pos-corruptSkip)%corruptStride == 0 {
			p[i] ^= 0x01
		}
	}
	c.off += n
	return n, err
}

// defaultStallCap bounds Stall faults whose Delay is unset: injected
// downtime must always end, even when nothing ever calls Disarm. A var
// so the package tests can shrink it.
var defaultStallCap = 5 * time.Second

// Disarm stops all future injection: armed faults stop firing, stalled
// visits return immediately. The convergence tests flip this to prove
// recovery.
func (in *Injector) Disarm() {
	if in == nil {
		return
	}
	in.mu.Lock()
	if !in.disarmed {
		in.disarmed = true
		close(in.disarm)
	}
	in.mu.Unlock()
}

// Rearm re-enables injection after a Disarm (fault windows keep their
// prior counters).
func (in *Injector) Rearm() {
	if in == nil {
		return
	}
	in.mu.Lock()
	if in.disarmed {
		in.disarmed = false
		in.disarm = make(chan struct{})
	}
	in.mu.Unlock()
}

// disarmSignal returns the channel closed by the next Disarm.
func (in *Injector) disarmSignal() <-chan struct{} {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.disarm
}

// Fired returns how many faults have fired at p.
func (in *Injector) Fired(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// Visits returns how many times p has been visited (fired or not).
func (in *Injector) Visits(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.visits[p]
}
