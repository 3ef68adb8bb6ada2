// Command perfbench is the repository benchmark: it runs one workload of
// the LEAPME train/serve stack for a fixed amount of seed-generated work
// and prints its end-to-end metrics or, with -trace 1, its per-layer
// metrics. See README.md in this directory for the workloads, the metrics
// and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"leapme/internal/nn"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 3

// metric names a reported value and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them (README.md defines each per workload).
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"p50_ms", "ms"},
	{"within_slo", "share"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"match_f1", "F1"},
}

// layerMetrics come from the traced run. A layer a workload does not
// exercise reports 0.
var layerMetrics = []metric{
	{"embedding.train_ms", "ms"},
	{"serve.start_ms", "ms"},
	{"core.train_ms", "ms"},
	{"nn.train_pairs_per_s", "1/s"},
	{"features.featurize_ms", "ms"},
	{"core.pairgen_ms", "ms"},
	{"core.match_ms", "ms"},
	{"core.pairs_scored", "count"},
	{"core.match_us_per_pair", "us"},
	{"offline.unattributed_ms", "ms"},
	{"core.score_us_per_pair", "us"},
	{"features.pairvec_us", "us"},
	{"nn.forward_us", "us"},
	{"features.featurize_us", "us"},
	{"serve.cache_hit_ratio", "share"},
	{"blocking.ann_ms", "ms"},
	{"index.candidates_per_query", "count"},
	{"blocking.pair_completeness", "share"},
	{"serve.handler_ms", "ms"},
	{"serve.batch_pairs", "count"},
	{"serve.shed_share", "share"},
	{"serve.unattributed_ms", "ms"},
	{"loadgen.transport_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.samples", "count"},
	{"env.steal_share", "share"},
	{"env.ref_loop_ms", "ms"},
	{"overhead.setup_s", "s"},
	{"overhead.job_s", "s"},
	{"overhead.p50_ms", "ms"},
	{"overhead.within_slo", "share"},
	{"overhead.cpu_ms_per_op", "ms"},
	{"overhead.peak_rss_mb", "MB"},
	{"overhead.match_f1", "F1"},
}

// pass is one execution of a workload: its set-ups, the timed phase, the
// output checks and, when traced, the replays.
type pass struct {
	ctx context.Context
	tr  *tracer // nil when untraced
	dir string  // scratch directory for the store and model files
}

// outcome is what a pass measured.
type outcome struct {
	setups []float64 // seconds per set-up
	jobs   []float64 // seconds per Algorithm 1 job
	ops    []op      // the timed operations, failed ones included
	// latMs are the latencies p50_ms is the median of: each successful
	// operation's, or on offline-match each scored pair's.
	latMs []float64
	slo   time.Duration
	phase phaseStats
	match prf
	late  []float64          // ms the generator ran behind, per operation
	layer map[string]float64 // per-layer values only the workload can compute
	spans []span
}

func (o *outcome) failed() int {
	n := 0
	for _, x := range o.ops {
		if !x.ok {
			n++
		}
	}
	return n
}

// runner is one workload with its inputs generated from the seed.
type runner interface {
	// digest fingerprints the generated inputs.
	digest() [32]byte
	run(p *pass) (*outcome, error)
}

var workloads = map[string]func(seed int64, seconds int) (runner, error){
	"offline-match":   newOffline,
	"serve-match":     newServeMatch,
	"serve-match-all": newServeMatchAll,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "offline-match | serve-match | serve-match-all")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 12, "length of the timed phase; sets the fixed amount of work")
	traced := fs.Int("trace", 0, "1 runs the workload untraced and then traced, and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload (offline-match|serve-match|serve-match-all), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	res, err := execute(mk, *name, *seed, *seconds, *traced == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func execute(mk func(int64, int) (runner, error), name string, seed int64, seconds int, traced bool, out string, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := mk(seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	refMs := refLoopMs()
	ctx := context.Background()
	plain, err := w.run(&pass{ctx: ctx, dir: dir})
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(plain.ops), Failed: plain.failed()}
	e2e := endToEnd(plain)
	printEnv(stdout, name, seed, "untraced", refMs, plain)
	metrics, units := e2e, endToEndMetrics
	if traced {
		tr := newTracer()
		tp, err := w.run(&pass{ctx: ctx, tr: tr, dir: dir})
		if err != nil {
			return nil, err
		}
		printEnv(stdout, name, seed, "traced", refMs, tp)
		res.Attempted += len(tp.ops)
		res.Failed += tp.failed()
		metrics, units = perLayer(tp, e2e, endToEnd(tp)), layerMetrics
		metrics["env.ref_loop_ms"] = refMs
		for _, root := range []string{"setup", "offline.job", "loadgen.request", "replay"} {
			printBreakdown(stdout, tp.spans, root)
		}
		fmt.Fprintf(stdout, "trace: overhead, traced minus untraced:")
		for _, m := range endToEndMetrics {
			fmt.Fprintf(stdout, " %s %+.4g %s;", m.name, metrics["overhead."+m.name], m.unit)
		}
		fmt.Fprintln(stdout)
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, tp.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tp.spans), path)
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]value, len(units))
	for _, m := range units {
		v, ok := metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, nil
}

func printEnv(w io.Writer, name string, seed int64, mode string, refMs float64, o *outcome) {
	env := currentEnvironment()
	env.RefLoopMs = refMs
	env.StealShare = o.phase.stealShare
	env.LateMs = quantile(o.late, 0.99)
	rec, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Mode     string `json:"mode"`
		environment
	}{name, seed, mode, env})
	fmt.Fprintf(w, "env: %s\n", rec)
}

// endToEnd computes the gated metrics of a pass.
func endToEnd(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":       median(o.setups),
		"job_s":         median(o.jobs),
		"p50_ms":        median(o.latMs),
		"within_slo":    withinSLO(o.ops, o.slo),
		"cpu_ms_per_op": ms(o.phase.cpu) / float64(len(o.ops)),
		"peak_rss_mb":   o.phase.peakRSSMB,
		"match_f1":      o.match.f1(),
	}
}

// perLayer computes the per-layer metrics of a traced pass; untraced and
// traced are the end-to-end metrics of the two passes.
func perLayer(o *outcome, untraced, traced map[string]float64) map[string]float64 {
	g := groupSpans(o.spans)
	m := map[string]float64{
		"embedding.train_ms":      g.medianMs("embedding.train"),
		"serve.start_ms":          g.medianMs("serve.start"),
		"core.train_ms":           g.medianMs("core.train"),
		"nn.train_pairs_per_s":    trainRate(g["core.train"]),
		"features.featurize_ms":   g.medianMs("features.featurize"),
		"core.pairgen_ms":         g.medianMs("core.pairgen"),
		"core.match_ms":           g.medianMs("core.match"),
		"core.match_us_per_pair":  g.medianPerItemUs("core.match"),
		"offline.unattributed_ms": medianSelfMs(o.spans, "offline.job"),
		"core.score_us_per_pair":  g.medianPerItemUs("replay.score"),
		"features.pairvec_us":     g.medianPerItemUs("replay.pairvec"),
		"nn.forward_us":           g.medianPerItemUs("replay.forward"),
		"features.featurize_us":   g.medianMs("replay.featurize") * 1000,
		"blocking.ann_ms":         g.medianMs("replay.ann"),
		"env.steal_share":         o.phase.stealShare,
	}
	for _, k := range []string{
		"core.pairs_scored", "serve.cache_hit_ratio", "index.candidates_per_query",
		"blocking.pair_completeness", "serve.batch_pairs", "serve.shed_share",
		"serve.unattributed_ms", "serve.handler_ms", "loadgen.transport_ms", "loadgen.late_ms",
		"loadgen.p99_ms", "loadgen.samples",
	} {
		m[k] = o.layer[k]
	}
	for _, e := range endToEndMetrics {
		m["overhead."+e.name] = traced[e.name] - untraced[e.name]
	}
	return m
}

// trainRate is labelled pairs × epochs ÷ training time, the median over
// training calls.
func trainRate(spans []span) float64 {
	epochs := 0
	for _, ph := range nn.PaperSchedule() {
		epochs += ph.Epochs
	}
	var xs []float64
	for _, s := range spans {
		if s.dur() > 0 {
			xs = append(xs, float64(s.N*epochs)/s.dur().Seconds())
		}
	}
	return median(xs)
}

// medianSelfMs is the median self time of the spans named name, in ms.
func medianSelfMs(spans []span, name string) float64 {
	self := selfTimes(spans)
	var xs []float64
	for i, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(self[i]))
		}
	}
	return median(xs)
}
