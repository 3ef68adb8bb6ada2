package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/features"
)

const (
	// catalogsPerSecond sizes serve-match-all's fixed work: a catalog
	// takes 0.05–0.13 s on a 2-vCPU Xeon.
	catalogsPerSecond = 7
	// maxCandidates is the server's default per-request pair cap
	// (leapme-serve -max-pairs); every catalog must stay under it.
	maxCandidates = 4096
	// matchAllSLO is serve-match-all's latency limit.
	matchAllSLO = 500 * time.Millisecond
	// matchAllReplayEvery samples one catalog in this many for the replays.
	matchAllReplayEvery = 8
)

// catalog is one /v1/match/all request: a freshly generated cameras-lite
// catalog, every property new to the server.
type catalog struct {
	props []*prop
	truth map[[2]string]bool
	body  []byte
}

func newCatalog(seed int64) (*catalog, error) {
	d, err := camerasLite(seed)
	if err != nil {
		return nil, err
	}
	c := &catalog{props: propsOf(d), truth: map[[2]string]bool{}}
	req := matchAllRequest{Sources: map[string][]wireProp{}, Blocking: "ann"}
	for _, p := range c.props {
		req.Sources[p.Source] = append(req.Sources[p.Source], wire(p))
	}
	for _, pr := range dataset.MatchingPairs(d.Props) {
		c.truth[pairKey(pr.A.String(), pr.B.String())] = true
	}
	c.body = mustJSON(req)
	return c, nil
}

// serveMatchAll is the serve-match-all workload: a closed loop, one
// client, each request a whole new catalog with ANN blocking.
type serveMatchAll struct {
	serveBase
	warm [][]byte
	cats []*catalog
}

func newServeMatchAll(seed int64, seconds int) (runner, error) {
	base, err := newServeBase(seed)
	if err != nil {
		return nil, err
	}
	w := &serveMatchAll{serveBase: base}
	warm, err := newCatalog(subSeed(seed, kindWarmup, 0))
	if err != nil {
		return nil, err
	}
	w.warm = [][]byte{warm.body}
	for i := 0; i < catalogsPerSecond*seconds; i++ {
		c, err := newCatalog(subSeed(seed, kindCatalog, i))
		if err != nil {
			return nil, err
		}
		w.cats = append(w.cats, c)
	}
	return w, nil
}

func (w *serveMatchAll) digest() [32]byte {
	parts := [][]byte{w.serveBase.digest()}
	parts = append(parts, w.warm...)
	for _, c := range w.cats {
		parts = append(parts, c.body)
	}
	return digestOf(parts...)
}

func (w *serveMatchAll) run(p *pass) (*outcome, error) {
	o := &outcome{slo: matchAllSLO, layer: map[string]float64{}}
	sv, err := w.setups(p, o, w.warm, "/v1/match/all")
	if err != nil {
		return nil, err
	}
	defer sv.srv.close()

	bodies := make([][]byte, len(w.cats))
	for i, c := range w.cats {
		bodies[i] = c.body
	}
	before := sv.srv.counters()
	ph := beginPhase()
	ops, res := sv.srv.closedLoop(p.tr, "/v1/match/all", bodies)
	o.phase = ph.end()
	serverLayers(o, before, sv.srv.counters())
	o.ops = ops
	for range ops {
		o.late = append(o.late, 0) // a closed loop has no schedule to fall behind
	}

	// Each catalog sent again must return the same match list.
	check := p.tr.start("check", 0, 0)
	for k, x := range res {
		first, c, err := w.check(k, x)
		if err == nil {
			again := sv.srv.post(p.tr, check, "/v1/match/all", bodies[k], -1-int64(k))
			var second matchAllResponse
			if second, _, err = w.check(k, again); err == nil && !sameMatches(first.Matches, second.Matches) {
				err = fmt.Errorf("sent again, %d matches differ from the first answer's %d", len(second.Matches), len(first.Matches))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve-match-all catalog %d: %v\n", k, err)
			o.ops[k].ok = false
			continue
		}
		o.ops[k].ok = true
		o.match.add(c)
	}
	p.tr.end(check, len(res))
	o.latMs = okLatenciesMs(o.ops)
	if p.tr != nil {
		o.spans = p.tr.snapshot()
		handler := requestLayers(o)
		ref, err := w.referenceScorer(sv)
		if err != nil {
			return nil, err
		}
		if err := w.replay(p, sv, ref, handler, o); err != nil {
			return nil, err
		}
		o.spans = p.tr.snapshot()
	}
	return o, nil
}

// check verifies catalog k's answer and counts its matches against
// ground truth.
func (w *serveMatchAll) check(k int, x exchange) (matchAllResponse, prf, error) {
	var resp matchAllResponse
	var c prf
	if !x.ok() {
		return resp, c, fmt.Errorf("status %d: %v %s", x.status, x.err, x.body)
	}
	if err := json.Unmarshal(x.body, &resp); err != nil {
		return resp, c, err
	}
	if resp.Candidates >= maxCandidates || resp.Failures != 0 || resp.Scored != resp.Candidates {
		return resp, c, fmt.Errorf("%d candidates (cap %d), %d scored, %d failed", resp.Candidates, maxCandidates, resp.Scored, resp.Failures)
	}
	truth := w.cats[k].truth
	for _, m := range resp.Matches {
		if truth[pairKey(m.A, m.B)] {
			c.tp++
		} else {
			c.fp++
		}
	}
	c.fn = len(truth) - c.tp
	return resp, c, nil
}

func sameMatches(a, b []matchAllMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// replay re-runs every matchAllReplayEvery-th catalog through the layers
// in the server's order: featurize every property, ANN blocking, then
// the scoring stage on one goroutine per CPU; a slice of the candidates
// also goes through the per-pair scoring replays. What the handler spent
// beyond the three stages is decoding, admission, batching and encoding.
func (w *serveMatchAll) replay(p *pass, sv *served, ref *core.Scorer, handler map[int64]time.Duration, o *outcome) error {
	r, err := newReplayer(p, sv.store, ref, w.seed)
	if err != nil {
		return err
	}
	var rest []float64
	found, truths := 0, 0
	for k := 0; k < len(w.cats); k += matchAllReplayEvery {
		c := w.cats[k]
		root := p.tr.start("replay", 0, int64(k))
		feats := map[string]*features.Prop{}
		props := make([]dataset.Property, len(c.props))
		var feat time.Duration
		for i, pr := range c.props {
			f, d := r.featurize(root, pr)
			feats[pr.key()] = f
			feat += d
			props[i] = dataset.Property{Source: pr.Source, Name: pr.Name}
		}
		// propsOf lists them in the (source, name) order in which the
		// server hands them to the blocker.
		cands, ann := r.ann(root, props)
		as := make([]*features.Prop, len(cands))
		bs := make([]*features.Prop, len(cands))
		for i, cd := range cands {
			as[i], bs[i] = feats[cd.A.String()], feats[cd.B.String()]
			if c.truth[pairKey(cd.A.String(), cd.B.String())] {
				found++
			}
		}
		truths += len(c.truth)
		stage, err := r.scoreStage(root, runtime.NumCPU(), as, bs)
		if err == nil {
			n := min(len(as), replayPairs)
			_, err = r.scoreSerial(root, as[:n], bs[:n])
		}
		p.tr.end(root, len(cands))
		if err != nil {
			return err
		}
		if h, ok := handler[int64(k)]; ok && o.ops[k].ok {
			rest = append(rest, ms(h-feat-ann-stage))
		}
	}
	o.layer["serve.unattributed_ms"] = median(rest)
	if truths > 0 {
		o.layer["blocking.pair_completeness"] = float64(found) / float64(truths)
	}
	return nil
}
