package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest order statistics (the "type 7" estimator). It sorts a copy,
// so callers may pass live slices. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// op is one timed operation of a workload: a job or a request.
type op struct {
	// sched is when the operation was due to start; for an open loop it
	// comes from the arrival schedule, otherwise it is the send time.
	sched time.Duration
	// sent is when the operation actually started.
	sent time.Duration
	// done is when its answer was complete.
	done time.Duration
	// ok is false when the operation failed, was refused, or its output
	// failed a check.
	ok bool
}

// latency is the operation's time from its scheduled start, so a stall
// also charges the operations queued behind it.
func (o op) latency() time.Duration { return o.done - o.sched }

// late is how far the load generator ran behind its schedule.
func (o op) late() time.Duration { return o.sent - o.sched }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// okLatenciesMs returns the latencies of the successful operations.
func okLatenciesMs(ops []op) []float64 {
	var out []float64
	for _, o := range ops {
		if o.ok {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

// withinSLO is the share of attempted operations that succeeded within
// limit; failed and refused operations count as misses.
func withinSLO(ops []op, limit time.Duration) float64 {
	if len(ops) == 0 {
		return 0
	}
	n := 0
	for _, o := range ops {
		if o.ok && o.latency() <= limit {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}

// prf holds match counts against ground truth.
type prf struct{ tp, fp, fn int }

func (c *prf) add(o prf) { c.tp += o.tp; c.fp += o.fp; c.fn += o.fn }

// f1 uses the same arithmetic as the evaluation harness, so the values
// compare bit for bit.
func (c prf) f1() float64 {
	var p, r float64
	if c.tp+c.fp > 0 {
		p = float64(c.tp) / float64(c.tp+c.fp)
	}
	if c.tp+c.fn > 0 {
		r = float64(c.tp) / float64(c.tp+c.fn)
	}
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
