// Package client is the deadline-aware HTTP client for leapme-serve: it
// speaks the /v1 JSON API, propagates per-request deadline budgets via
// the X-Leapme-Deadline-Ms header, and retries transient failures —
// 429 (honoring Retry-After), 503 and 504 plus transport errors — with
// exponential backoff and seeded jitter. Permanent failures (4xx other
// than 429, and 500: a poisoned request stays poisoned) surface
// immediately as a typed *APIError.
//
// The jitter source is an explicitly seeded *rand.Rand (mathx.NewRand),
// so a fleet of clients built with distinct seeds desynchronises its
// retries, while a chaos test with a fixed seed replays the exact same
// backoff schedule. The package sits in the determinism analyzer's
// scope; the one timer it owns (the backoff sleep) is annotated, because
// wait time never feeds a computed result.
//
//lint:allow deadexport no program imports the client yet; client_test.go drives every export against live servers under make test-chaos
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leapme/internal/mathx"
)

// DeadlineHeader carries the per-request scoring budget in integer
// milliseconds. The server clamps it to its own -max-deadline.
const DeadlineHeader = "X-Leapme-Deadline-Ms"

// PropSpec is a property on the wire: its name and instance values.
type PropSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values,omitempty"`
}

// Pair is one property pair to score.
type Pair struct {
	A PropSpec `json:"a"`
	B PropSpec `json:"b"`
}

// MatchRequest is the /v1/match request body.
type MatchRequest struct {
	Model     string   `json:"model,omitempty"`
	Threshold *float64 `json:"threshold,omitempty"`
	Pairs     []Pair   `json:"pairs"`
}

// PairResult is one scored pair.
type PairResult struct {
	Score float64 `json:"score"`
	Match bool    `json:"match"`
	Error string  `json:"error,omitempty"`
}

// MatchResponse is the /v1/match response body.
type MatchResponse struct {
	Model   string       `json:"model"`
	CRC     string       `json:"model_crc"`
	Results []PairResult `json:"results"`
}

// APIError is a non-2xx answer from the server, decoded from its typed
// JSON error body.
type APIError struct {
	Status     int           // HTTP status code
	Code       string        // machine-readable error code ("overloaded", "deadline_exceeded", ...)
	Message    string        // human-readable message
	RetryAfter time.Duration // the server's Retry-After advice (0 if absent)
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// Retryable reports whether the failure is worth retrying: the server
// shed load (429), is draining or briefly unavailable (503), or a
// deadline fired on a stalled batch (504). Anything else is permanent
// for this request.
func (e *APIError) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Config configures a Client.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient —
	// tests pass the httptest server's client).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 25ms); the
	// wait before retry n is BaseBackoff·2ⁿ, jittered to [½x, 1½x) and
	// capped at MaxBackoff (default 2s). A larger server Retry-After
	// wins over the computed backoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed seeds the jitter source. Give fleet members distinct seeds.
	Seed int64
	// Deadline, when positive, is sent as X-Leapme-Deadline-Ms on every
	// attempt — each retry gets a fresh budget.
	Deadline time.Duration
}

// Stats are cumulative client counters, readable at any time.
type Stats struct {
	Attempts  int64 // HTTP attempts issued
	Retries   int64 // attempts beyond the first, per call
	Throttled int64 // 429 responses seen
	Deadlined int64 // 504 responses seen
}

// Client calls a leapme-serve instance with retries. Safe for
// concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	attempts  atomic.Int64
	retries   atomic.Int64
	throttled atomic.Int64
	deadlined atomic.Int64
}

// New validates cfg and returns a Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: empty BaseURL")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return &Client{cfg: cfg, http: cfg.HTTPClient, rng: mathx.NewRand(cfg.Seed)}, nil
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		Throttled: c.throttled.Load(),
		Deadlined: c.deadlined.Load(),
	}
}

// Match scores pairs via POST /v1/match, retrying transient failures
// until ctx ends or MaxAttempts is exhausted.
func (c *Client) Match(ctx context.Context, req *MatchRequest) (*MatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var out MatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/match", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes GET /readyz once (no retries — readiness is a poll).
func (c *Client) Ready(ctx context.Context) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(msg))}
	}
	return nil
}

// do runs the retry loop around one endpoint call.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt - 1)
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > wait {
				wait = apiErr.RetryAfter
			}
			c.retries.Add(1)
			if err := sleepCtx(ctx, wait); err != nil {
				return err
			}
		}
		err := c.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Retryable() {
			return err
		}
		// Transport errors (server killed mid-stream, connection reset)
		// and retryable statuses loop around.
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt issues one HTTP request and decodes the answer.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	httpReq, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.cfg.Deadline > 0 {
		httpReq.Header.Set(DeadlineHeader, strconv.FormatInt(c.cfg.Deadline.Milliseconds(), 10))
	}
	c.attempts.Add(1)
	resp, err := c.http.Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		c.throttled.Add(1)
	case http.StatusGatewayTimeout:
		c.deadlined.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// decodeError turns a non-200 response into an *APIError, reading the
// server's typed JSON body and Retry-After header when present.
func decodeError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	var body struct {
		Error        string `json:"error"`
		Code         string `json:"code"`
		RetryAfterMs int64  `json:"retry_after_ms"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		apiErr.Message = body.Error
		apiErr.Code = body.Code
		apiErr.RetryAfter = time.Duration(body.RetryAfterMs) * time.Millisecond
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	// Header form wins when longer. RFC 9110 allows both delta-seconds
	// (what leapme-serve sends) and an HTTP-date (what proxies and load
	// balancers in front of it may rewrite it to).
	if s := resp.Header.Get("Retry-After"); s != "" {
		var d time.Duration
		if secs, err := strconv.Atoi(s); err == nil {
			d = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(s); err == nil {
			//lint:allow determinism an absolute Retry-After date only converts to a wait via the wall clock; wait time never feeds a computed result
			d = time.Until(at)
		}
		if d > apiErr.RetryAfter {
			apiErr.RetryAfter = d
		}
	}
	return apiErr
}

// backoff computes the jittered exponential wait before retry n (0-based).
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BaseBackoff << uint(n)
	if d <= 0 || d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	f := 0.5 + c.rng.Float64() // jitter factor in [0.5, 1.5)
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	//lint:allow determinism backoff wait time delays retries but never feeds a computed result
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
