package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"leapme/internal/blocking"
	"leapme/internal/chaos"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/index"
)

// DeadlineHeader carries a per-request scoring budget in integer
// milliseconds; the server clamps it to Config.MaxDeadline.
const DeadlineHeader = "X-Leapme-Deadline-Ms"

// Config configures a Server.
type Config struct {
	// Store is the embedding store every model featurizes against.
	Store *embedding.Store
	// Models are the model files to load at startup.
	Models []ModelSource
	// Active names the initially active model (default: the first one).
	Active string
	// Workers sizes the batch-scoring worker pool (default 4).
	Workers int
	// MaxBatch caps pairs per micro-batch (default 32).
	MaxBatch int
	// MaxWait is ignored: the batcher hands each micro-batch to the
	// first idle worker and coalesces pairs only while every worker is
	// busy, so no batch waits on a timer.
	//
	// Deprecated: MaxWait has no effect and will be removed.
	MaxWait time.Duration
	// CacheSize bounds each model's feature cache in entries (default
	// 4096, -1 disables).
	CacheSize int
	// Threshold is every model's match threshold. Model files store no
	// threshold, so 0 (or any value outside (0, 1)) means core's
	// default of 0.5. A request's own threshold still wins.
	Threshold float64
	// MaxValues caps instance values per served property (0 = all).
	MaxValues int
	// MaxPairs caps pairs per /v1/match request and candidate pairs per
	// /v1/match/all request (default 4096). New clamps it down to
	// MaxQueuedPairs so any request that passes validation can be
	// admitted on an idle server: an oversized request fails with a
	// permanent 400, never a 429 that could not possibly succeed.
	MaxPairs int
	// MaxProps caps properties per /v1/match/all request (default 2048).
	MaxProps int
	// MaxQueuedPairs bounds pairs admitted into the scoring pipeline but
	// not yet answered, across all in-flight requests. A request that
	// would push past the bound is shed with a typed 429 and Retry-After
	// instead of queueing (default 4×Workers×MaxBatch, raised to
	// MaxPairs when that is larger so a full-size request still fits).
	MaxQueuedPairs int
	// HighWaterFrac is the fraction of MaxQueuedPairs above which
	// /readyz degrades to 503, steering load balancers away before the
	// hard cap sheds (default 0.75).
	HighWaterFrac float64
	// RetryAfter is the advice attached to shed responses (default 1s).
	RetryAfter time.Duration
	// DefaultDeadline is the per-request scoring budget when the client
	// sends no X-Leapme-Deadline-Ms header (default 10s; negative
	// disables the default so only client-requested budgets apply).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested budgets (default 60s).
	MaxDeadline time.Duration
	// Chaos, when non-nil, arms deterministic fault injection at the
	// serving layer's hook points (see internal/chaos). Production
	// servers leave it nil; the hooks are free.
	Chaos *chaos.Injector
}

// Server is the matching-as-a-service HTTP server: a model registry, a
// micro-batching scorer and the /v1 handlers. Create with New, mount
// Handler, and Close on shutdown.
type Server struct {
	cfg   Config
	reg   *Registry
	batch *batcher
	adm   *admission
	met   *Metrics
	mux   *http.ServeMux
	ready atomic.Bool
}

// New loads every configured model and starts the batching workers.
func New(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("serve: no models configured")
	}
	if cfg.MaxPairs <= 0 {
		cfg.MaxPairs = 4096
	}
	if cfg.MaxProps <= 0 {
		cfg.MaxProps = 2048
	}
	if cfg.MaxQueuedPairs <= 0 {
		workers, maxBatch := cfg.Workers, cfg.MaxBatch
		if workers <= 0 {
			workers = 4
		}
		if maxBatch <= 0 {
			maxBatch = 32
		}
		cfg.MaxQueuedPairs = 4 * workers * maxBatch
		if cfg.MaxQueuedPairs < cfg.MaxPairs {
			// The default bound must admit a maximal valid request on an
			// idle server; otherwise 513+ pairs under default flags would
			// shed forever — a permanent failure dressed up as transient.
			cfg.MaxQueuedPairs = cfg.MaxPairs
		}
	} else if cfg.MaxPairs > cfg.MaxQueuedPairs {
		// An explicit admission cap below MaxPairs wins: clamp MaxPairs so
		// a request that can never be admitted fails validation with a
		// permanent 400 instead of an eternally retryable 429.
		cfg.MaxPairs = cfg.MaxQueuedPairs
	}
	switch {
	case cfg.DefaultDeadline == 0:
		cfg.DefaultDeadline = 10 * time.Second
	case cfg.DefaultDeadline < 0:
		cfg.DefaultDeadline = 0
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	met := newMetrics()
	reg, err := NewRegistry(cfg.Store, RegistryOptions{
		Workers:   cfg.Workers,
		CacheSize: cfg.CacheSize,
		Threshold: cfg.Threshold,
		MaxValues: cfg.MaxValues,
		Chaos:     cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	reg.met = met
	for _, ms := range cfg.Models {
		if _, err := reg.LoadSource(ms); err != nil {
			return nil, err
		}
	}
	if cfg.Active != "" {
		if err := reg.Activate(cfg.Active); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		batch: newBatcher(cfg.Workers, cfg.MaxBatch, met, cfg.Chaos),
		adm:   newAdmission(cfg.MaxQueuedPairs, cfg.HighWaterFrac, cfg.RetryAfter),
		met:   met,
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/match", s.handleMatch)
	s.mux.HandleFunc("/v1/match/all", s.handleMatchAll)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.ready.Store(true)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (listing, activation, reload).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the server counters.
func (s *Server) Metrics() *Metrics { return s.met }

// Reload re-reads every model from disk — the SIGHUP hook.
func (s *Server) Reload() error { return s.reg.Reload() }

// Close drains the scoring pipeline: readiness flips off, already-
// enqueued pairs finish, new scoring work gets ErrDraining. Call after
// http.Server.Shutdown has drained connections (or with it; in-flight
// handlers race Close only for enqueueing, never for losing answers).
func (s *Server) Close() {
	s.ready.Store(false)
	s.batch.Close()
}

// --- request/response schema ---

// propSpec is a property as it appears on the wire: its name and
// instance values.
type propSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values,omitempty"`
}

type pairSpec struct {
	A propSpec `json:"a"`
	B propSpec `json:"b"`
}

type matchRequest struct {
	Model     string     `json:"model,omitempty"`
	Threshold *float64   `json:"threshold,omitempty"`
	Pairs     []pairSpec `json:"pairs"`
}

type pairResult struct {
	Score float64 `json:"score"`
	Match bool    `json:"match"`
	Error string  `json:"error,omitempty"`
}

type cacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

type matchResponse struct {
	Model   string       `json:"model"`
	CRC     string       `json:"model_crc"`
	Results []pairResult `json:"results"`
	Cache   cacheStats   `json:"cache"`
}

type matchAllRequest struct {
	Model     string                `json:"model,omitempty"`
	Threshold *float64              `json:"threshold,omitempty"`
	Sources   map[string][]propSpec `json:"sources"`
	Blocking  string                `json:"blocking,omitempty"` // none|token|embedding|union|ann|ann-union
	Top       int                   `json:"top,omitempty"`
}

type matchAllMatch struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Score float64 `json:"score"`
}

type matchAllResponse struct {
	Model      string          `json:"model"`
	Properties int             `json:"properties"`
	Candidates int             `json:"candidates"`
	Scored     int             `json:"scored"`
	Failures   int             `json:"failures"`
	Matches    []matchAllMatch `json:"matches"`
	Cache      cacheStats      `json:"cache"`
}

type modelDesc struct {
	Name         string     `json:"name"`
	Path         string     `json:"path"`
	Active       bool       `json:"active"`
	LoadedAt     time.Time  `json:"loaded_at"`
	Format       int        `json:"format_version"`
	Features     string     `json:"features"`
	EmbeddingDim int        `json:"embedding_dim,omitempty"`
	InDim        int        `json:"in_dim"`
	Hidden       []int      `json:"hidden"`
	CRC          string     `json:"crc"`
	Threshold    float64    `json:"threshold"`
	Cache        cacheStats `json:"cache"`
}

type modelsAction struct {
	Activate string `json:"activate,omitempty"`
	Reload   bool   `json:"reload,omitempty"`
}

// --- handlers ---

// apiError is the typed JSON error body every non-200 answer carries:
// the message, a machine-readable code clients branch on, and — for 429
// shedding — a retry hint mirroring the Retry-After header in exact
// milliseconds.
type apiError struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// codeFor maps a status to its default error code; call sites with a
// more specific condition (shedding, draining, deadline) use failCode
// directly.
func codeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	default:
		return "internal"
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.failCode(w, status, codeFor(status), format, args...)
}

func (s *Server) failCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.met.RequestErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...), Code: code})
}

// probe answers a non-200 health/readiness probe with a typed apiError.
// Unlike failCode it does not count toward RequestErrors: a load
// balancer polling a draining instance is the system working, not a
// failed request.
func (s *Server) probe(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// shed answers a typed 429: the admission queue is full, come back after
// RetryAfter. The header carries ceil-seconds (its wire granularity);
// the JSON body repeats the advice in exact milliseconds.
func (s *Server) shed(w http.ResponseWriter, pairs int) {
	s.met.RequestsShed.Add(1)
	s.met.RequestErrors.Add(1)
	ra := s.adm.retryAfter
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.FormatInt(int64((ra+time.Second-1)/time.Second), 10))
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(apiError{
		Error: fmt.Sprintf("admission queue full (%d pairs queued, cap %d): request of %d pairs shed",
			s.adm.Depth(), s.adm.max, pairs),
		Code:         "overloaded",
		RetryAfterMs: ra.Milliseconds(),
	})
}

// failDeadline answers a typed 504 for a request whose scoring budget
// expired — the waiters of a slow or stalled batch land here while the
// rest of the pool keeps serving.
func (s *Server) failDeadline(w http.ResponseWriter, scored, total int) {
	s.met.DeadlineExpired.Add(1)
	s.failCode(w, http.StatusGatewayTimeout, "deadline_exceeded",
		"deadline exceeded with %d of %d pairs scored", scored, total)
}

// enqueueFail maps a batcher Enqueue/Await error onto the typed error
// vocabulary: draining → 503, an expired budget → 504.
func (s *Server) enqueueFail(w http.ResponseWriter, err error, scored, total int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.failDeadline(w, scored, total)
	case errors.Is(err, ErrDraining):
		s.failCode(w, http.StatusServiceUnavailable, "draining", "%v", err)
	default:
		s.failCode(w, http.StatusServiceUnavailable, "canceled", "enqueue: %v", err)
	}
}

// requestContext derives the request's scoring context from its deadline
// budget: the X-Leapme-Deadline-Ms header when present (clamped to
// MaxDeadline), else DefaultDeadline, else no server-imposed deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad %s header %q: want positive integer milliseconds", DeadlineHeader, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.ready.Load() {
		s.failCode(w, http.StatusServiceUnavailable, "draining", "draining")
		return
	}
	var req matchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		s.fail(w, http.StatusBadRequest, "no pairs")
		return
	}
	if len(req.Pairs) > s.cfg.MaxPairs {
		s.fail(w, http.StatusBadRequest, "%d pairs exceeds limit %d", len(req.Pairs), s.cfg.MaxPairs)
		return
	}
	for i, p := range req.Pairs {
		if p.A.Name == "" || p.B.Name == "" {
			s.fail(w, http.StatusBadRequest, "pair %d: both properties need a name", i)
			return
		}
	}
	md, err := s.reg.Get(req.Model)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	// Admission: the request's pairs must fit under the queue bound in
	// full, or the whole request sheds with a 429 — never a partial
	// score, never an unbounded pile-up behind the batcher. Slots return
	// per pair as results land (abandoned pairs via drainAbandoned), so
	// the depth gauge keeps counting work still occupying the pipeline.
	if !s.adm.tryAcquire(len(req.Pairs)) {
		s.shed(w, len(req.Pairs))
		return
	}
	s.met.MatchRequests.Add(1)

	threshold := md.Threshold()
	if req.Threshold != nil {
		threshold = *req.Threshold
	}
	// Featurize (through the cache), then enqueue the whole request as
	// one span — the dispatcher coalesces its pairs, and concurrent
	// requests' pairs, into batches. The unit closure only runs when a
	// pair fails, so the steady state formats no strings.
	n := len(req.Pairs)
	as := make([]*features.Prop, n)
	bs := make([]*features.Prop, n)
	for i, p := range req.Pairs {
		as[i] = md.Featurize(p.A.Name, p.A.Values)
		bs[i] = md.Featurize(p.B.Name, p.B.Values)
	}
	sp, err := s.batch.EnqueueSpan(ctx, md, as, bs, func(i int) string {
		return fmt.Sprintf("pair %d (%s × %s)", i, req.Pairs[i].A.Name, req.Pairs[i].B.Name)
	})
	if err != nil {
		s.adm.release(n) // nothing entered the pipeline
		s.enqueueFail(w, err, 0, n)
		return
	}
	results := make([]pairResult, n)
	delivered := make([]bool, n)
	scored, failed, received := 0, 0, 0
	for received < n {
		idx, ok := sp.next(ctx)
		if !ok {
			break
		}
		received++
		delivered[idx] = true
		s.adm.release(1)
		if err := sp.errs[idx]; err != nil {
			results[idx] = pairResult{Error: err.Error()}
			failed++
			continue
		}
		scored++
		results[idx] = pairResult{Score: sp.scores[idx], Match: sp.scores[idx] >= threshold}
	}
	s.drainSpan(sp, n-received)
	// A budget that expired mid-request answers a typed 504 — but only
	// when a wait was actually cut off. A request whose last result
	// landed just before the deadline is a success, not a timeout; the
	// batcher pool is unharmed either way (workers finish the batch into
	// the span's buffered channel), only this request's waiter was
	// cancelled.
	if received < n {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.failDeadline(w, scored, n)
			return
		}
		for i := range results {
			if !delivered[i] {
				results[i] = pairResult{Error: ctx.Err().Error()}
				failed++
			}
		}
	}
	if failed == len(results) {
		// Every pair failed — a poisoned request. The guard kept the
		// server alive; this request alone answers 500.
		s.met.RequestErrors.Add(1)
		w.Header().Set("Content-Type", "application/json")
		//lint:allow errvocab this 500 deliberately carries the full per-pair matchResponse body (not an apiError) so the client sees which pair poisoned the request
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(matchResponse{Model: md.Name, CRC: fmt.Sprintf("%08x", md.Info.CRC), Results: results, Cache: cacheOf(md)})
		return
	}
	writeJSON(w, matchResponse{Model: md.Name, CRC: fmt.Sprintf("%08x", md.Info.CRC), Results: results, Cache: cacheOf(md)})
}

func cacheOf(md *Model) cacheStats {
	h, m, n := md.CacheStats()
	return cacheStats{Hits: h, Misses: m, Entries: n}
}

// drainSpan returns admission slots for a span's remaining pairs after
// the request's waiter gave up (expired budget, dropped client). Each
// slot is released only when the worker's result actually lands in the
// span channel, so leapme_queue_depth keeps counting zombie pairs still
// occupying the batcher — after a burst of 504s new admissions queue
// behind the real backlog instead of an under-counted one. The goroutine
// always terminates: every enqueued pair is answered into the span's
// buffered channel, even through Close.
func (s *Server) drainSpan(sp *span, remaining int) {
	if remaining <= 0 {
		return
	}
	//lint:allow guardgo the body only receives from a buffered channel and cannot panic; workers' delivery guarantee bounds its life
	go func() {
		for i := 0; i < remaining; i++ {
			<-sp.resp
			s.adm.release(1)
		}
	}()
}

// annCandidates serves the "ann" and "ann-union" blocking modes: indexed
// k-nearest-neighbour retrieval from the model's preloaded snapshot when
// it covers the request's properties, or an ephemeral per-request index
// otherwise (the ANNBlocker falls back internally; the metrics record
// which path served). ann-union additionally merges token blocking, the
// indexed counterpart of "union".
func (s *Server) annCandidates(ctx context.Context, md *Model, props []dataset.Property, withToken bool) ([]dataset.Pair, error) {
	ann := blocking.NewANNBlocker(s.cfg.Store, index.Options{})
	ann.Snapshot = md.Index
	if md.Index != nil && blocking.SnapshotCovers(md.Index, props) {
		s.met.IndexSnapshotHits.Add(1)
	} else {
		s.met.IndexBuilds.Add(1)
	}
	cands, err := ann.CandidatesCtx(ctx, props)
	if err != nil {
		return nil, err
	}
	s.met.IndexQueries.Add(int64(len(props)))
	s.met.IndexCandidates.Add(int64(len(cands)))
	if !withToken {
		return cands, nil
	}
	return blocking.MergePairs(cands, blocking.NewTokenBlocker().Candidates(props)), nil
}

func (s *Server) handleMatchAll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.ready.Load() {
		s.failCode(w, http.StatusServiceUnavailable, "draining", "draining")
		return
	}
	var req matchAllRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Sources) < 2 {
		s.fail(w, http.StatusBadRequest, "need at least 2 sources, got %d", len(req.Sources))
		return
	}
	md, err := s.reg.Get(req.Model)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}

	// Materialise the request's properties, rejecting duplicates — each
	// (source, name) must identify one property.
	var props []dataset.Property
	feats := map[dataset.Key]*features.Prop{}
	total := 0
	for src, specs := range req.Sources {
		for _, spec := range specs {
			if spec.Name == "" {
				s.fail(w, http.StatusBadRequest, "source %q: property without a name", src)
				return
			}
			k := dataset.Key{Source: src, Name: spec.Name}
			if _, dup := feats[k]; dup {
				s.fail(w, http.StatusBadRequest, "duplicate property %s", k)
				return
			}
			total++
			if total > s.cfg.MaxProps {
				s.fail(w, http.StatusBadRequest, "more than %d properties", s.cfg.MaxProps)
				return
			}
			props = append(props, dataset.Property{Source: src, Name: spec.Name})
			feats[k] = md.Featurize(spec.Name, spec.Values)
		}
	}
	sort.Slice(props, func(i, j int) bool {
		if props[i].Source != props[j].Source {
			return props[i].Source < props[j].Source
		}
		return props[i].Name < props[j].Name
	})

	var cands []dataset.Pair
	switch req.Blocking {
	case "", "none":
		dataset.CrossSourcePairs(props, func(a, b dataset.Property) bool {
			cands = append(cands, dataset.Pair{A: a.Key(), B: b.Key()})
			return len(cands) <= s.cfg.MaxPairs
		})
	case "token":
		cands = blocking.NewTokenBlocker().Candidates(props)
	case "embedding":
		cands = blocking.NewEmbeddingBlocker(s.cfg.Store).Candidates(props)
	case "union":
		cands = blocking.Union([]blocking.Blocker{
			blocking.NewTokenBlocker(),
			blocking.NewEmbeddingBlocker(s.cfg.Store),
		}).Candidates(props)
	case "ann", "ann-union":
		cands, err = s.annCandidates(r.Context(), md, props, req.Blocking == "ann-union")
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "ann blocking: %v", err)
			return
		}
	default:
		s.fail(w, http.StatusBadRequest, "unknown blocking %q (none|token|embedding|union|ann|ann-union)", req.Blocking)
		return
	}
	if len(cands) > s.cfg.MaxPairs {
		s.fail(w, http.StatusBadRequest, "%d candidate pairs exceeds limit %d (add blocking or split the request)",
			len(cands), s.cfg.MaxPairs)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	n := len(cands)
	resp := matchAllResponse{
		Model:      md.Name,
		Properties: len(props),
		Candidates: n,
		Matches:    []matchAllMatch{},
	}
	if n == 0 {
		// Blocking proposed no pair: the answer is complete without
		// admission or the batcher, which takes only non-empty spans.
		s.met.MatchAllRequests.Add(1)
		resp.Cache = cacheOf(md)
		writeJSON(w, resp)
		return
	}
	if !s.adm.tryAcquire(n) {
		s.shed(w, n)
		return
	}
	s.met.MatchAllRequests.Add(1)

	threshold := md.Threshold()
	if req.Threshold != nil {
		threshold = *req.Threshold
	}
	as := make([]*features.Prop, n)
	bs := make([]*features.Prop, n)
	for i, c := range cands {
		as[i] = feats[c.A]
		bs[i] = feats[c.B]
	}
	sp, err := s.batch.EnqueueSpan(ctx, md, as, bs, func(i int) string {
		return cands[i].A.String() + " × " + cands[i].B.String()
	})
	if err != nil {
		s.adm.release(n) // nothing entered the pipeline
		s.enqueueFail(w, err, 0, n)
		return
	}
	received := 0
	for received < n {
		idx, ok := sp.next(ctx)
		if !ok {
			break
		}
		received++
		s.adm.release(1)
		if sp.errs[idx] != nil {
			resp.Failures++
			continue
		}
		resp.Scored++
		if sp.scores[idx] >= threshold {
			resp.Matches = append(resp.Matches, matchAllMatch{A: cands[idx].A.String(), B: cands[idx].B.String(), Score: sp.scores[idx]})
		}
	}
	s.drainSpan(sp, n-received)
	if received < n {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.failDeadline(w, resp.Scored, n)
			return
		}
		resp.Failures += n - received
	}
	// Matches accumulate in completion order, which races across
	// workers — the sort must be a total order (score, then keys) so the
	// response is deterministic for a given request.
	sort.Slice(resp.Matches, func(i, j int) bool {
		mi, mj := resp.Matches[i], resp.Matches[j]
		if mi.Score > mj.Score {
			return true
		}
		if mj.Score > mi.Score {
			return false
		}
		if mi.A != mj.A {
			return mi.A < mj.A
		}
		return mi.B < mj.B
	})
	if req.Top > 0 && len(resp.Matches) > req.Top {
		resp.Matches = resp.Matches[:req.Top]
	}
	resp.Cache = cacheOf(md)
	writeJSON(w, resp)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		active := s.reg.Active()
		var out []modelDesc
		for _, md := range s.reg.List() {
			out = append(out, modelDesc{
				Name:         md.Name,
				Path:         md.Path,
				Active:       md == active,
				LoadedAt:     md.LoadedAt,
				Format:       md.Info.FormatVersion,
				Features:     featuresLabel(md),
				EmbeddingDim: md.Info.EmbeddingDim,
				InDim:        md.Info.InDim,
				Hidden:       md.Info.Hidden,
				CRC:          fmt.Sprintf("%08x", md.Info.CRC),
				Threshold:    md.Threshold(),
				Cache:        cacheOf(md),
			})
		}
		writeJSON(w, out)
	case http.MethodPost:
		var act modelsAction
		if !s.decode(w, r, &act) {
			return
		}
		switch {
		case act.Activate != "":
			if err := s.reg.Activate(act.Activate); err != nil {
				s.fail(w, http.StatusNotFound, "%v", err)
				return
			}
			writeJSON(w, map[string]string{"active": act.Activate})
		case act.Reload:
			if err := s.reg.Reload(); err != nil {
				s.fail(w, http.StatusInternalServerError, "reload: %v", err)
				return
			}
			writeJSON(w, map[string]string{"status": "reloaded"})
		default:
			s.fail(w, http.StatusBadRequest, `want {"activate": name} or {"reload": true}`)
		}
	default:
		s.fail(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case !s.ready.Load() || s.reg.Active() == nil:
		s.probe(w, http.StatusServiceUnavailable, "not_ready", "not ready")
	case s.adm.degraded():
		// Above the high-water mark: still serving, but load balancers
		// should steer new traffic elsewhere before shedding starts.
		s.probe(w, http.StatusServiceUnavailable, "degraded", "degraded: admission queue above high-water mark")
	default:
		w.Write([]byte("ready\n"))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.WriteTo(w, s.reg, s.ready.Load(), s.adm.Depth(), s.adm.degraded())
}
