package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/eval"
	"leapme/internal/mathx"
	"leapme/internal/serve"
)

// spanHeader carries the client span's id to the handler span, and
// X-Request-Id the request id both spans share. The server ignores both.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Request-Id"
)

// server is serve.New behind a loopback net/http listener, configured
// with leapme-serve's flag defaults, plus a client limited to one
// connection per CPU.
type server struct {
	api    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startServer(p *pass, parent int, store *embedding.Store, modelPath string) (*server, error) {
	id := p.tr.start("serve.start", parent, 0)
	defer p.tr.end(id, 0)
	api, err := serve.New(serve.Config{
		Store:           store,
		Models:          []serve.ModelSource{{Name: "bench", Path: modelPath}},
		Workers:         4,
		MaxBatch:        32,
		MaxWait:         2 * time.Millisecond,
		CacheSize:       4096,
		MaxPairs:        4096,
		HighWaterFrac:   0.75,
		RetryAfter:      time.Second,
		DefaultDeadline: 10 * time.Second,
		MaxDeadline:     60 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	h := api.Handler()
	if p.tr != nil {
		h = traceHandler(p.tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		return nil, err
	}
	s := &server{
		api: api,
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      90 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// traceHandler wraps the server's handler in the server-side span.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		id := tr.start("serve.handler", parent, req)
		h.ServeHTTP(w, r)
		tr.end(id, 0)
	})
}

// close drains the HTTP server and the scoring pipeline and waits for the
// listener goroutine to exit.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.api.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// exchange is one request's answer.
type exchange struct {
	status int
	body   []byte
	err    error
}

func (x exchange) ok() bool { return x.err == nil && x.status == http.StatusOK }

// post sends one request and reads the whole answer. With tracing on it
// opens the client span and hands its id and the request id to the
// handler span.
func (s *server) post(tr *tracer, parent int, path string, body []byte, req int64) exchange {
	id := tr.start("loadgen.request", parent, req)
	defer tr.end(id, 0)
	hr, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if id != 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(id))
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return exchange{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return exchange{status: resp.StatusCode, body: data, err: err}
}

// senders bounds the open loop's in-flight requests; a request finding
// all of them busy waits, and the wait shows as generator lateness.
const senders = 32

// openLoop sends bodies[k] at start+sched[k] whether or not earlier
// requests have been answered; latency runs from the scheduled time.
func (s *server) openLoop(tr *tracer, path string, bodies [][]byte, sched []time.Duration) ([]op, []exchange) {
	ops := make([]op, len(bodies))
	res := make([]exchange, len(bodies))
	queue := make(chan int, len(bodies)) // one slot per send: the schedule never waits on senders
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				ops[k].sent = time.Since(start)
				res[k] = s.post(tr, 0, path, bodies[k], int64(k))
				ops[k].done = time.Since(start)
			}
		}()
	}
	for k := range bodies {
		ops[k].sched = sched[k]
		if d := time.Until(start.Add(sched[k])); d > 0 {
			time.Sleep(d)
		}
		queue <- k
	}
	close(queue)
	wg.Wait()
	return ops, res
}

// closedLoop sends bodies one after another from a single client.
func (s *server) closedLoop(tr *tracer, path string, bodies [][]byte) ([]op, []exchange) {
	ops := make([]op, len(bodies))
	res := make([]exchange, len(bodies))
	start := time.Now()
	for k := range bodies {
		t := time.Since(start)
		res[k] = s.post(tr, 0, path, bodies[k], int64(k))
		ops[k] = op{sched: t, sent: t, done: time.Since(start)}
	}
	return ops, res
}

// counters snapshots the server's cumulative counters.
type counters struct {
	pairs, batches, batchPairs, shed, queries, candidates, hits, misses int64
}

func (s *server) counters() counters {
	m := s.api.Metrics()
	c := counters{
		pairs:      m.PairsScored.Load(),
		batches:    m.Batches.Load(),
		batchPairs: m.BatchPairs.Load(),
		shed:       m.RequestsShed.Load(),
		queries:    m.IndexQueries.Load(),
		candidates: m.IndexCandidates.Load(),
	}
	if md := s.api.Registry().Active(); md != nil {
		c.hits, c.misses, _ = md.CacheStats()
	}
	return c
}

// serverLayers fills the per-layer values the server's counters give
// over the timed phase.
func serverLayers(o *outcome, before, after counters) {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	o.layer["core.pairs_scored"] = float64(after.pairs - before.pairs)
	o.layer["serve.batch_pairs"] = ratio(after.batchPairs-before.batchPairs, after.batches-before.batches)
	o.layer["serve.shed_share"] = ratio(after.shed-before.shed, int64(len(o.ops)))
	o.layer["index.candidates_per_query"] = ratio(after.candidates-before.candidates, after.queries-before.queries)
	o.layer["serve.cache_hit_ratio"] = ratio(after.hits-before.hits, after.hits-before.hits+after.misses-before.misses)
}

// serveBase is what both serving workloads share: the store corpus and
// the reference dataset the served model is trained on, on a split the
// workload seed draws.
type serveBase struct {
	seed   int64
	corpus [][]string
	ref    *dataset.Dataset
	train  map[string]bool // the served model's training sources
}

func newServeBase(seed int64) (serveBase, error) {
	ref, err := camerasLite(datasetSeed)
	if err != nil {
		return serveBase{}, err
	}
	sp, err := eval.SplitSources(ref.Sources, trainFrac, mathx.NewRand(seed))
	if err != nil {
		return serveBase{}, err
	}
	return serveBase{seed: seed, corpus: corpus(seed), ref: ref, train: sp.Train}, nil
}

func (b *serveBase) digest() []byte {
	return append(mustJSON(b.corpus), mustJSON(b.ref)...)
}

// served is one set-up's result.
type served struct {
	srv   *server
	store *embedding.Store
	model string // model file path
}

// setups performs the set-up setupRepeats times, keeping the last
// server, and records each set-up's time and its training job's time.
func (b *serveBase) setups(p *pass, o *outcome, warm [][]byte, warmPath string) (*served, error) {
	var last *served
	for k := 0; k < setupRepeats; k++ {
		if last != nil {
			if err := last.srv.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		sv, setup, job, err := b.setup(p, warm, warmPath)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, setup.Seconds())
		o.jobs = append(o.jobs, job.Seconds())
		last = sv
	}
	return last, nil
}

// setup trains the store and the served model as `leapme embed` and
// `leapme train` do, writes both through their file formats, starts the
// server on them and warms it up. It returns the set-up time and the
// time of the model's training job (featurize → pair → fit).
func (b *serveBase) setup(p *pass, warm [][]byte, warmPath string) (*served, time.Duration, time.Duration, error) {
	t0 := time.Now()
	root := p.tr.start("setup", 0, 0)
	defer p.tr.end(root, 0)
	store, err := buildStore(p, root, b.corpus, b.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	tj := time.Now()
	m, err := core.NewMatcher(store, core.DefaultOptions(b.seed))
	if err != nil {
		return nil, 0, 0, err
	}
	id := p.tr.start("features.featurize", root, 0)
	err = m.ComputeFeatures(p.ctx, b.ref)
	p.tr.end(id, len(b.ref.Props))
	if err != nil {
		return nil, 0, 0, err
	}
	id = p.tr.start("core.pairgen", root, 0)
	pairs := core.TrainingPairs(b.ref.PropsOfSources(b.train), 2, mathx.NewRand(b.seed))
	p.tr.end(id, len(pairs))
	id = p.tr.start("core.train", root, 0)
	_, err = m.Train(p.ctx, pairs)
	p.tr.end(id, len(pairs))
	if err != nil {
		return nil, 0, 0, err
	}
	job := time.Since(tj)
	path := filepath.Join(p.dir, "model.leapme")
	id = p.tr.start("core.roundtrip", root, 0)
	err = writeModel(m, path)
	p.tr.end(id, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	srv, err := startServer(p, root, store, path)
	if err != nil {
		return nil, 0, 0, err
	}
	id = p.tr.start("serve.warmup", root, 0)
	for i, body := range warm {
		if x := srv.post(p.tr, id, warmPath, body, int64(-1-i)); !x.ok() {
			p.tr.end(id, i)
			srv.close()
			return nil, 0, 0, fmt.Errorf("warm-up request %d: status %d: %v %s", i, x.status, x.err, x.body)
		}
	}
	p.tr.end(id, len(warm))
	return &served{srv: srv, store: store, model: path}, time.Since(t0), job, nil
}

func writeModel(m *core.Matcher, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := m.WriteModel(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// referenceScorer reads the served model file back into a fresh matcher,
// the independent scorer the output checks compare against.
func (b *serveBase) referenceScorer(sv *served) (*core.Scorer, error) {
	m, err := core.NewMatcher(sv.store, core.DefaultOptions(b.seed))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(sv.model)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := m.ReadModel(bufio.NewReader(f)); err != nil {
		return nil, err
	}
	return m.NewScorer()
}

// requestLayers maps the ids of the timed requests (warm-up and check
// requests carry negative ids) to the durations of their handler spans,
// and sets serve.handler_ms and the load generator's diagnostics.
func requestLayers(o *outcome) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	var xs []float64
	for _, s := range o.spans {
		if s.Name == "serve.handler" && s.Req >= 0 {
			out[s.Req] = s.dur()
			xs = append(xs, ms(s.dur()))
		}
	}
	lat := okLatenciesMs(o.ops)
	o.layer["serve.handler_ms"] = median(xs)
	o.layer["loadgen.transport_ms"] = median(lat) - median(xs)
	o.layer["loadgen.p99_ms"] = quantile(lat, 0.99)
	o.layer["loadgen.samples"] = float64(len(lat))
	o.layer["loadgen.late_ms"] = quantile(o.late, 0.99)
	return out
}
