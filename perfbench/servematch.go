package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"leapme/internal/core"
	"leapme/internal/features"
)

const (
	// matchRate is serve-match's arrival rate, well under saturation on
	// a 2-vCPU Xeon (~1.2 CPU-ms per request at its slowest).
	matchRate = 200
	// matchPairs is smaller than one 32-pair micro-batch, so most batches
	// flush on the batcher's 2 ms timer.
	matchPairs = 8
	// freshShare is the chance that a pair carries a never-seen property.
	freshShare = 0.25
	// matchSLO is serve-match's latency limit.
	matchSLO = 50 * time.Millisecond
	// matchReplayEvery samples one request in this many for the replays.
	matchReplayEvery = 4
)

// serveMatch is the serve-match workload: an open loop of small
// /v1/match requests whose properties mostly hit the feature cache.
type serveMatch struct {
	serveBase
	refs   []*prop  // the reference set: the served model's dataset
	warm   [][]byte // requests that put every reference property in the cache
	reqs   [][][2]*prop
	fresh  [][]*prop // never-seen properties each request introduces
	bodies [][]byte
	sched  []time.Duration
}

func newServeMatch(seed int64, seconds int) (runner, error) {
	base, err := newServeBase(seed)
	if err != nil {
		return nil, err
	}
	w := &serveMatch{serveBase: base, refs: propsOf(base.ref)}
	for i := 0; i < len(w.refs); i += 2 * matchPairs {
		var req matchRequest
		for j := i; j < min(i+2*matchPairs, len(w.refs)); j += 2 {
			req.Pairs = append(req.Pairs, wirePair{A: wire(w.refs[j]), B: wire(w.refs[(j+1)%len(w.refs)])})
		}
		w.warm = append(w.warm, mustJSON(req))
	}

	byRef := map[string][]*prop{}
	seen := map[string]bool{}
	for _, p := range w.refs {
		byRef[p.Ref] = append(byRef[p.Ref], p)
		seen[contentKey(p)] = true
	}
	var pool []*prop
	sets := 0
	nextFresh := func() (*prop, error) {
		for len(pool) == 0 {
			sets++
			d, err := camerasLite(subSeed(seed, kindFresh, sets))
			if err != nil {
				return nil, err
			}
			for _, p := range propsOf(d) {
				if !seen[contentKey(p)] {
					seen[contentKey(p)] = true
					pool = append(pool, p)
				}
			}
		}
		p := pool[0]
		pool = pool[1:]
		return p, nil
	}
	rng := rand.New(rand.NewSource(subSeed(seed, kindRequests, 0)))
	pick := func(ps []*prop) *prop { return ps[rng.Intn(len(ps))] }
	var t float64
	for k := 0; k < matchRate*seconds; k++ {
		var pairs [][2]*prop
		var fresh []*prop
		var req matchRequest
		for i := 0; i < matchPairs; i++ {
			var a, b *prop
			if rng.Float64() < freshShare {
				if b, err = nextFresh(); err != nil {
					return nil, err
				}
				fresh = append(fresh, b)
				a = pick(w.refs)
				if same := byRef[b.Ref]; b.Ref != "" && len(same) > 0 && rng.Intn(2) == 0 {
					a = pick(same)
				}
			} else {
				a = pick(w.refs)
				b = pick(w.refs)
				if same := byRef[a.Ref]; a.Ref != "" && len(same) > 1 && rng.Intn(2) == 0 {
					b = pick(same)
				}
				for b == a {
					b = pick(w.refs)
				}
			}
			pairs = append(pairs, [2]*prop{a, b})
			req.Pairs = append(req.Pairs, wirePair{A: wire(a), B: wire(b)})
		}
		w.reqs = append(w.reqs, pairs)
		w.fresh = append(w.fresh, fresh)
		w.bodies = append(w.bodies, mustJSON(req))
		w.sched = append(w.sched, time.Duration(t*float64(time.Second)))
		t += rng.ExpFloat64() / matchRate
	}
	return w, nil
}

// refFeatures memoises the reference scorer's features by property.
type refFeatures map[*prop]*features.Prop

func (c refFeatures) get(sc *core.Scorer, p *prop) *features.Prop {
	f, ok := c[p]
	if !ok {
		f = sc.Featurize(p.Name, p.Values)
		c[p] = f
	}
	return f
}

// contentKey identifies what the server's feature cache keys on: the
// name and the values.
func contentKey(p *prop) string { return string(mustJSON(wire(p))) }

func (w *serveMatch) digest() [32]byte {
	parts := [][]byte{w.serveBase.digest()}
	parts = append(parts, w.warm...)
	parts = append(parts, w.bodies...)
	parts = append(parts, mustJSON(w.sched))
	return digestOf(parts...)
}

func (w *serveMatch) run(p *pass) (*outcome, error) {
	o := &outcome{slo: matchSLO, layer: map[string]float64{}}
	sv, err := w.setups(p, o, w.warm, "/v1/match")
	if err != nil {
		return nil, err
	}
	defer sv.srv.close()

	before := sv.srv.counters()
	ph := beginPhase()
	ops, res := sv.srv.openLoop(p.tr, "/v1/match", w.bodies, w.sched)
	o.phase = ph.end()
	serverLayers(o, before, sv.srv.counters())
	o.ops = ops
	for _, x := range ops {
		o.late = append(o.late, ms(x.late()))
	}

	// Every score must equal core.Scorer.Score on the same properties, bit
	// for bit.
	ref, err := w.referenceScorer(sv)
	if err != nil {
		return nil, err
	}
	feats := refFeatures{}
	for k, x := range res {
		c, err := w.check(ref, feats, k, x)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve-match request %d: %v\n", k, err)
			o.ops[k].ok = false
			continue
		}
		o.ops[k].ok = true
		o.match.add(c)
	}
	o.latMs = okLatenciesMs(o.ops)
	if p.tr != nil {
		o.spans = p.tr.snapshot()
		handler := requestLayers(o)
		if err := w.replay(p, sv, ref, feats, handler, o); err != nil {
			return nil, err
		}
		o.spans = p.tr.snapshot()
	}
	return o, nil
}

// check verifies request k's answer and counts its matches against
// ground truth.
func (w *serveMatch) check(ref *core.Scorer, feats refFeatures, k int, x exchange) (prf, error) {
	var c prf
	if !x.ok() {
		return c, fmt.Errorf("status %d: %v %s", x.status, x.err, x.body)
	}
	var resp matchResponse
	if err := json.Unmarshal(x.body, &resp); err != nil {
		return c, err
	}
	if len(resp.Results) != len(w.reqs[k]) {
		return c, fmt.Errorf("%d results for %d pairs", len(resp.Results), len(w.reqs[k]))
	}
	for i, pr := range w.reqs[k] {
		r := resp.Results[i]
		if r.Error != "" {
			return c, fmt.Errorf("pair %d: %s", i, r.Error)
		}
		want, err := ref.Score(feats.get(ref, pr[0]), feats.get(ref, pr[1]))
		if err != nil {
			return c, err
		}
		if math.Float64bits(r.Score) != math.Float64bits(want) {
			return c, fmt.Errorf("pair %d: score %v, core.Scorer.Score %v", i, r.Score, want)
		}
		switch truth := matches(pr[0], pr[1]); {
		case r.Match && truth:
			c.tp++
		case r.Match:
			c.fp++
		case truth:
			c.fn++
		}
	}
	return c, nil
}

// replay re-runs every matchReplayEvery-th request through the layers:
// its never-seen properties through Scorer.Featurize, its pairs through
// the scoring replays. What the handler spent beyond them is decoding,
// admission, cache lookups, the batcher's flush wait and encoding.
func (w *serveMatch) replay(p *pass, sv *served, ref *core.Scorer, feats refFeatures, handler map[int64]time.Duration, o *outcome) error {
	r, err := newReplayer(p, sv.store, ref, w.seed)
	if err != nil {
		return err
	}
	var rest []float64
	for k := 0; k < len(w.reqs); k += matchReplayEvery {
		root := p.tr.start("replay", 0, int64(k))
		var feat time.Duration
		for _, f := range w.fresh[k] {
			_, d := r.featurize(root, f)
			feat += d
		}
		as := make([]*features.Prop, len(w.reqs[k]))
		bs := make([]*features.Prop, len(w.reqs[k]))
		for i, pr := range w.reqs[k] {
			as[i], bs[i] = feats.get(ref, pr[0]), feats.get(ref, pr[1])
		}
		score, err := r.scoreSerial(root, as, bs)
		p.tr.end(root, len(as))
		if err != nil {
			return err
		}
		if h, ok := handler[int64(k)]; ok && o.ops[k].ok {
			rest = append(rest, ms(h-feat-score))
		}
	}
	o.layer["serve.unattributed_ms"] = median(rest)
	return nil
}
