// Command leapme-serve exposes trained LEAPME models over HTTP —
// matching as a service:
//
//	leapme embed -out store.bin
//	leapme train -data data/cameras -store store.bin -train source00,source01 -out model.leapme
//	leapme-serve -store store.bin -model model.leapme -addr :8080
//
// Endpoints:
//
//	POST /v1/match      score explicit property pairs
//	POST /v1/match/all  match every cross-source pair (optional blocking)
//	GET  /v1/models     list loaded models; POST {"activate":...}/{"reload":true}
//	GET  /healthz       liveness
//	GET  /readyz        readiness (flips off while draining)
//	GET  /metrics       Prometheus text exposition
//
// Multiple models are served side by side (-model "a=x.leapme,b=y.leapme");
// requests pick one with "model", others use the active one. -index
// attaches prebuilt ANN snapshots (from `leapme index`) so /v1/match/all
// "ann" blocking answers from the snapshot instead of building an index
// per request. SIGHUP (or POST {"reload":true}) re-reads every model file
// — and its snapshot — and hot-swaps without dropping in-flight requests.
// SIGINT/SIGTERM drains and exits 130.
//
// Overload and failure behavior: admitted-but-unanswered pairs are
// bounded by -max-queue — beyond it requests shed with a typed 429 and
// Retry-After, and /readyz degrades to 503 above -high-water of the
// bound. -max-pairs never exceeds -max-queue (serve.New raises the
// defaulted bound or clamps -max-pairs), so a valid request always fits
// an idle server and a 429 is genuinely transient. Every request runs
// under a deadline budget (-deadline, or the
// client's X-Leapme-Deadline-Ms header clamped to -max-deadline); an
// expired budget answers a typed 504 without stalling the scorer pool.
// See the README's "Overload & failure behavior" section for the full
// semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"leapme/internal/cli"
	"leapme/internal/guard"
	"leapme/internal/serve"
)

func main() {
	cli.Exit("leapme-serve", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("leapme-serve", flag.ExitOnError)
	storePath := fs.String("store", "", "embedding store file (from `leapme embed`)")
	modelList := fs.String("model", "", "model files to serve: path, or name=path,name=path,...")
	indexList := fs.String("index", "", "ANN index snapshots (from `leapme index`): path, or name=path,... matching -model names")
	active := fs.String("active", "", "initially active model name (default: first loaded)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 4, "batch-scoring workers (also sizes each model's scorer pool)")
	maxBatch := fs.Int("max-batch", 32, "max pairs per micro-batch")
	cacheSize := fs.Int("cache", 4096, "feature cache entries per model (-1 disables)")
	threshold := fs.Float64("threshold", 0, "every model's match threshold (model files store none; 0 means the default 0.5)")
	maxValues := fs.Int("max-values", 0, "cap instance values per served property (0 = all)")
	maxPairs := fs.Int("max-pairs", 4096, "max pairs per request (clamped down to -max-queue when that is set lower)")
	maxQueue := fs.Int("max-queue", 0, "max admitted-but-unanswered pairs before shedding 429s (0 = 4×workers×max-batch, at least -max-pairs)")
	highWater := fs.Float64("high-water", 0.75, "fraction of -max-queue above which /readyz degrades to 503")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After advice attached to shed (429) responses")
	deadline := fs.Duration("deadline", 10*time.Second, "default per-request scoring budget (-1 disables; clients override via X-Leapme-Deadline-Ms)")
	maxDeadline := fs.Duration("max-deadline", 60*time.Second, "upper clamp on client-requested scoring budgets")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (full request read)")
	writeTimeout := fs.Duration("write-timeout", 90*time.Second, "http.Server WriteTimeout (must exceed -max-deadline)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout (keep-alive connections)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	fs.Parse(args)
	if *storePath == "" || *modelList == "" {
		fs.Usage()
		return errors.New("need -store and -model")
	}
	models, err := serve.ParseModelList(*modelList)
	if err != nil {
		return err
	}
	if *indexList != "" {
		if err := serve.AttachIndexes(models, *indexList); err != nil {
			return err
		}
	}
	store, err := cli.LoadStore(*storePath)
	if err != nil {
		return err
	}
	s, err := serve.New(serve.Config{
		Store:           store,
		Models:          models,
		Active:          *active,
		Workers:         *workers,
		MaxBatch:        *maxBatch,
		CacheSize:       *cacheSize,
		Threshold:       *threshold,
		MaxValues:       *maxValues,
		MaxPairs:        *maxPairs,
		MaxQueuedPairs:  *maxQueue,
		HighWaterFrac:   *highWater,
		RetryAfter:      *retryAfter,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
	})
	if err != nil {
		return err
	}
	for _, md := range s.Registry().List() {
		fmt.Fprintf(os.Stderr, "leapme-serve: loaded %s from %s (%v)\n", md.Name, md.Path, md.Info)
	}

	// Full server timeouts, not just the header read: a slow-loris body
	// or a client that never drains its response must not pin a
	// connection forever. WriteTimeout bounds the whole handler, so keep
	// it above -max-deadline or budgeted requests lose their typed 504.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Background goroutines run under guard so a panic in either lands
	// in the report (logged at shutdown) instead of killing the server
	// with an unattributed stack.
	bg := guard.NewReport()
	var bgWG sync.WaitGroup

	// SIGHUP hot-reloads every model file; load failures keep the old
	// version serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	guard.Go(&bgWG, bg, "sighup-reload", func() error {
		for range hup {
			if err := s.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "leapme-serve: reload: %v\n", err)
			} else {
				fmt.Fprintln(os.Stderr, "leapme-serve: models reloaded")
			}
		}
		return nil
	})

	ctx, stop := cli.SignalContext()
	defer stop()
	errc := make(chan error, 1)
	guard.Go(&bgWG, bg, "http-listen", func() error {
		fmt.Fprintf(os.Stderr, "leapme-serve: listening on %s\n", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		return nil
	})

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	stop() // second Ctrl-C kills immediately
	fmt.Fprintln(os.Stderr, "leapme-serve: draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "leapme-serve: forced shutdown: %v\n", err)
	}
	s.Close()
	if bg.Failed() > 0 {
		fmt.Fprintf(os.Stderr, "leapme-serve: background goroutines: %s\n", bg)
	}
	// cli.Exit maps context.Canceled to exit code 130, the conventional
	// "terminated by signal" status.
	return context.Canceled
}
