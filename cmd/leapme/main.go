// Command leapme is the end-to-end CLI for the LEAPME property matcher:
//
//	leapme embed   -out store.bin [-dim 50] [-categories cameras,...]
//	leapme train   -data data/cameras -store store.bin -train source00,source01 -out model.leapme
//	leapme match   -data data/cameras -store store.bin -train source00,source01 [-top 20]
//	leapme eval    -data data/cameras -store store.bin [-frac 0.8] [-runs 5]
//	leapme cluster -data data/cameras -store store.bin -train source00,source01 [-scheme star]
//	leapme index   -data data/cameras -store store.bin -out index.leapme
//
// embed trains domain GloVe embeddings (and prints an embedding quality
// report); train fits a matcher on the named sources and saves it as a
// model file for leapme-serve; match trains on the named sources and
// prints the matches it finds among the remaining sources; eval runs the
// paper's protocol and prints averaged P/R/F1; cluster derives property
// clusters from the similarity graph; index builds an ANN snapshot for
// leapme-serve's -index flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"leapme/internal/cli"
	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/embedding"
	"leapme/internal/eval"
	"leapme/internal/features"
	"leapme/internal/graph"
	"leapme/internal/index"
	"leapme/internal/mathx"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancels the run cooperatively: long scenario loops
	// (eval's 25 splits, quadratic matching) notice within one work unit
	// and return context.Canceled instead of dying mid-write.
	ctx, stop := cli.SignalContext()
	defer stop()
	var err error
	switch os.Args[1] {
	case "embed":
		err = cmdEmbed(os.Args[2:])
	case "train":
		err = cmdTrain(ctx, os.Args[2:])
	case "match":
		err = cmdMatch(ctx, os.Args[2:])
	case "eval":
		err = cmdEval(ctx, os.Args[2:])
	case "cluster":
		err = cmdCluster(ctx, os.Args[2:])
	case "index":
		err = cmdIndex(ctx, os.Args[2:])
	case "serve":
		fmt.Fprintln(os.Stderr, "leapme: serving lives in its own binary — run `leapme-serve -store store.bin -model model.leapme` (train a model first with `leapme train`)")
		os.Exit(2)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "leapme: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	stop()
	cli.Exit("leapme", err)
}

// loadData loads a dataset directory, quarantining malformed records in
// lenient mode.
func loadData(dir string, lenient bool) (*dataset.Dataset, error) {
	return cli.LoadData("leapme", dir, lenient)
}

// reportUnitFailures surfaces per-unit failures (isolated panics during
// featurization or scoring) that did not abort the run.
func reportUnitFailures(m *core.Matcher) {
	if rep := m.LastReport(); rep != nil && rep.Failed() > 0 {
		fmt.Fprintf(os.Stderr, "leapme: warning: %s\n", rep)
	}
}

// matcherWorkersHelp documents -workers on the subcommands that train
// and classify through core.Matcher.
const matcherWorkersHelp = "parallelism of featurization, training and classification: N workers, 0 or -1 = all CPUs; results are bit-identical for every value"

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  leapme embed   -out store.bin [-dim 50] [-epochs 30] [-categories cameras,headphones,phones,tvs] [-seed 1]
  leapme train   -data DIR -store store.bin -train src1,src2 -out model.leapme [-features both/all] [-threshold 0.5]
  leapme match   -data DIR -store store.bin -train src1,src2 [-features both/all] [-threshold 0.5] [-top 0]
  leapme eval    -data DIR -store store.bin [-frac 0.8] [-runs 5] [-features both/all] [-seed 1]
  leapme cluster -data DIR -store store.bin -train src1,src2 [-scheme components|star|correlation]
  leapme index   -data DIR -store store.bin -out index.leapme [-seed 1]

train/match/eval/cluster/index also accept:
  -lenient       quarantine malformed dataset records instead of failing the load
  -timeout DUR   abort the run after DUR (e.g. 90s); Ctrl-C cancels cooperatively
  -workers N     parallelism: N workers, 0 (default) or -1 = all CPUs;
                 featurization, training and classification are
                 bit-identical for every value

serve saved models over HTTP with the leapme-serve binary:
  leapme-serve -store store.bin -model model.leapme [-addr :8080]`)
}

func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	out := fs.String("out", "store.bin", "output file for the embedding store")
	dim := fs.Int("dim", 50, "embedding dimension")
	epochs := fs.Int("epochs", 30, "GloVe epochs")
	cats := fs.String("categories", "cameras,headphones,phones,tvs", "categories for the corpus")
	sentences := fs.Int("sentences", 120, "corpus sentences per property")
	seed := fs.Int64("seed", 1, "seed")
	fs.Parse(args)

	all := domain.Categories()
	var selected []*domain.Category
	for _, name := range strings.Split(*cats, ",") {
		c, ok := all[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown category %q", name)
		}
		selected = append(selected, c)
	}
	corpus := domain.Corpus(selected, domain.CorpusConfig{SentencesPerProp: *sentences, Seed: *seed})
	cfg := embedding.DefaultGloVeConfig()
	cfg.Dim = *dim
	cfg.Epochs = *epochs
	cfg.Seed = *seed
	store, err := embedding.TrainGloVe(corpus, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := store.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("trained %d vectors of dimension %d on %d sentences → %s\n",
		store.Size(), store.Dim(), len(corpus), *out)
	// Quality gate: synonym groups of the selected categories must embed
	// closer together than cross-property phrases.
	rep := store.MeasureQuality(domain.SynonymGroups(selected))
	fmt.Printf("quality: %v\n", rep)
	if rep.Separation < 0.2 {
		fmt.Fprintln(os.Stderr, "warning: low synonym separation; consider more epochs or corpus sentences")
	}
	return nil
}

func loadStore(path string) (*embedding.Store, error) {
	return cli.LoadStore(path)
}

func parseFeatures(s string) (features.Config, error) {
	return features.ParseConfig(s)
}

// cmdTrain fits a matcher on the named sources and saves it as a model
// file (descriptor + standardiser + network) for leapme-serve.
func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataDir := fs.String("data", "", "dataset directory (from datagen)")
	storePath := fs.String("store", "", "embedding store file (from embed)")
	trainList := fs.String("train", "", "comma-separated training sources")
	out := fs.String("out", "model.leapme", "output model file")
	featStr := fs.String("features", "both/all", "feature config level/kind")
	threshold := fs.Float64("threshold", 0.5, "match threshold")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, matcherWorkersHelp)
	lenient := fs.Bool("lenient", false, "quarantine malformed dataset records instead of failing")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	fs.Parse(args)
	if *dataDir == "" || *storePath == "" || *trainList == "" {
		return fmt.Errorf("train needs -data, -store and -train")
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	m, _, _, err := trainedMatcher(ctx, *dataDir, *storePath, *trainList, *featStr, *threshold, *seed, *workers, *lenient)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := m.WriteModel(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Read the file back through the descriptor path: what we print is
	// what leapme-serve will see.
	info, err := core.LoadInfoFile(*out)
	if err != nil {
		return fmt.Errorf("verifying written model: %w", err)
	}
	fmt.Printf("saved model → %s\n%v\n", *out, info)
	fmt.Printf("serve it: leapme-serve -store %s -model %s\n", *storePath, *out)
	return nil
}

// trainedMatcher loads data+store, trains on the given sources and
// returns the matcher plus the held-out test properties.
func trainedMatcher(ctx context.Context, dataDir, storePath, trainList, featStr string, threshold float64, seed int64, workers int, lenient bool) (*core.Matcher, []dataset.Property, *dataset.Dataset, error) {
	store, err := loadStore(storePath)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := loadData(dataDir, lenient)
	if err != nil {
		return nil, nil, nil, err
	}
	fc, err := parseFeatures(featStr)
	if err != nil {
		return nil, nil, nil, err
	}
	trainSrc := cli.SourceSet(trainList)
	known := map[string]bool{}
	for _, s := range d.Sources {
		known[s] = true
	}
	testSrc := map[string]bool{}
	for _, s := range d.Sources {
		if !trainSrc[s] {
			testSrc[s] = true
		}
	}
	for s := range trainSrc {
		if !known[s] {
			return nil, nil, nil, fmt.Errorf("training source %q not in dataset (sources: %s)", s, strings.Join(d.Sources, ", "))
		}
	}
	if len(testSrc) == 0 {
		return nil, nil, nil, fmt.Errorf("no sources left for testing")
	}
	opts := core.DefaultOptions(seed)
	opts.Features = fc
	opts.Threshold = threshold
	opts.Workers = workers
	m, err := core.NewMatcher(store, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.ComputeFeatures(ctx, d); err != nil {
		return nil, nil, nil, err
	}
	reportUnitFailures(m)
	pairs := core.TrainingPairs(d.PropsOfSources(trainSrc), 2, mathx.NewRand(seed))
	if len(pairs) == 0 {
		return nil, nil, nil, fmt.Errorf("no training pairs among sources %s", trainList)
	}
	if _, err := m.Train(ctx, pairs); err != nil {
		return nil, nil, nil, err
	}
	return m, d.PropsOfSources(testSrc), d, nil
}

func cmdMatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	dataDir := fs.String("data", "", "dataset directory (from datagen)")
	storePath := fs.String("store", "", "embedding store file (from embed)")
	trainList := fs.String("train", "", "comma-separated training sources")
	featStr := fs.String("features", "both/all", "feature config level/kind")
	threshold := fs.Float64("threshold", 0.5, "match threshold")
	top := fs.Int("top", 0, "print only the top N matches by score (0 = all)")
	explain := fs.Bool("explain", false, "attribute each printed match to its feature groups")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, matcherWorkersHelp)
	lenient := fs.Bool("lenient", false, "quarantine malformed dataset records instead of failing")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	fs.Parse(args)
	if *dataDir == "" || *storePath == "" || *trainList == "" {
		return fmt.Errorf("match needs -data, -store and -train")
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	m, testProps, _, err := trainedMatcher(ctx, *dataDir, *storePath, *trainList, *featStr, *threshold, *seed, *workers, *lenient)
	if err != nil {
		return err
	}
	matches, err := m.Matches(ctx, testProps)
	if err != nil {
		return err
	}
	reportUnitFailures(m)
	sort.Slice(matches, func(i, j int) bool { return matches[i].Score > matches[j].Score })
	if *top > 0 && len(matches) > *top {
		matches = matches[:*top]
	}
	for _, sp := range matches {
		if *explain {
			ex, err := m.Explain(sp.A, sp.B)
			if err != nil {
				return err
			}
			fmt.Println(ex)
		} else {
			fmt.Printf("%.3f  %-40s  %s\n", sp.Score, sp.A, sp.B)
		}
	}
	fmt.Fprintf(os.Stderr, "%d matches among %d test properties\n", len(matches), len(testProps))
	return nil
}

func cmdEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dataDir := fs.String("data", "", "dataset directory")
	storePath := fs.String("store", "", "embedding store file")
	frac := fs.Float64("frac", 0.8, "training source fraction")
	runs := fs.Int("runs", 5, "number of random splits")
	featStr := fs.String("features", "both/all", "feature config")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, matcherWorkersHelp)
	lenient := fs.Bool("lenient", false, "quarantine malformed dataset records instead of failing")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	fs.Parse(args)
	if *dataDir == "" || *storePath == "" {
		return fmt.Errorf("eval needs -data and -store")
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	store, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	d, err := loadData(*dataDir, *lenient)
	if err != nil {
		return err
	}
	fc, err := parseFeatures(*featStr)
	if err != nil {
		return err
	}
	h := eval.NewHarness(store, *seed)
	h.Runs = *runs
	h.Workers = *workers
	h.Options.Workers = *workers
	h.Ctx = ctx
	h.OnRun = func(run int, m eval.PRF) {
		fmt.Fprintf(os.Stderr, "run %d: %v\n", run, m)
	}
	m, err := h.EvalLEAPME(d, fc, *frac)
	if err != nil {
		return err
	}
	fmt.Printf("%s @ %.0f%% training (%d runs, features %s): %v\n", d.Name, *frac*100, *runs, fc, m)
	return nil
}

func cmdCluster(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	dataDir := fs.String("data", "", "dataset directory")
	storePath := fs.String("store", "", "embedding store file")
	trainList := fs.String("train", "", "comma-separated training sources")
	scheme := fs.String("scheme", "components", "clustering scheme: components|star|correlation")
	threshold := fs.Float64("threshold", 0.5, "match threshold")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, matcherWorkersHelp)
	lenient := fs.Bool("lenient", false, "quarantine malformed dataset records instead of failing")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	fs.Parse(args)
	if *dataDir == "" || *storePath == "" || *trainList == "" {
		return fmt.Errorf("cluster needs -data, -store and -train")
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	m, testProps, _, err := trainedMatcher(ctx, *dataDir, *storePath, *trainList, "both/all", *threshold, *seed, *workers, *lenient)
	if err != nil {
		return err
	}
	g := graph.New()
	for _, p := range testProps {
		g.AddNode(p.Key())
	}
	if err := m.MatchAll(ctx, testProps, func(sp core.ScoredPair) {
		if sp.Match {
			g.AddEdge(sp.A, sp.B, sp.Score)
		}
	}); err != nil {
		return err
	}
	reportUnitFailures(m)
	var clusters graph.Clustering
	switch *scheme {
	case "components":
		clusters = g.ConnectedComponents()
	case "star":
		clusters = g.StarClustering()
	case "correlation":
		clusters = g.CorrelationClustering(0.7)
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	for i, c := range clusters {
		if len(c) < 2 {
			continue
		}
		fmt.Printf("cluster %d (%d properties):\n", i, len(c))
		for _, k := range c {
			fmt.Printf("  %s\n", k)
		}
	}
	truth := dataset.MatchingPairs(testProps)
	p, r, f1 := clusters.PairwiseQuality(truth)
	fmt.Fprintf(os.Stderr, "pairwise quality vs ground truth: P=%.3f R=%.3f F1=%.3f\n", p, r, f1)
	return nil
}

// cmdIndex builds an LSH index snapshot over a dataset's properties and
// saves it for leapme-serve's -index flag: /v1/match/all "ann" blocking
// then answers from the snapshot instead of building an index per
// request.
func cmdIndex(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dataDir := fs.String("data", "", "dataset directory (from datagen)")
	storePath := fs.String("store", "", "embedding store file (from embed)")
	out := fs.String("out", "index.leapme", "output snapshot file")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", -1, "parallelism: N = deterministic N-worker build, -1 = all CPUs")
	lenient := fs.Bool("lenient", false, "quarantine malformed dataset records instead of failing")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	fs.Parse(args)
	if *dataDir == "" || *storePath == "" {
		return fmt.Errorf("index needs -data and -store")
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	store, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	d, err := loadData(*dataDir, *lenient)
	if err != nil {
		return err
	}
	snap, err := index.BuildSnapshot(ctx, store, d.Props, index.Options{
		Seed:    *seed,
		Workers: *workers,
	})
	if err != nil {
		return err
	}
	if err := snap.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("indexed %d properties (lsh, dim %d) → %s\n",
		snap.Len(), store.Dim(), *out)
	fmt.Printf("serve it: leapme-serve -store %s -model model.leapme -index %s\n", *storePath, *out)
	return nil
}
