package serve

// The chaos suite (`make test-chaos`, run under -race) injects
// deterministic faults through internal/chaos and proves the overload
// and failure invariants end-to-end:
//
//   - sustained overload sheds with typed 429 + Retry-After, never an
//     unbounded queue;
//   - a stalled worker yields typed 504s for only the affected waiters,
//     and the pool recovers when the stall clears;
//   - an injected scorer panic is isolated to its one pair;
//   - corrupted model bytes on reload keep the old snapshot serving;
//   - Close drains: every in-flight pair is answered, late work gets a
//     typed 503.
//
// All injector decisions run under a fixed seed, so the fault schedule
// is reproducible run to run.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leapme/internal/chaos"
)

// decodeAPIError unmarshals the server's typed error body.
func decodeAPIError(t *testing.T, raw []byte) apiError {
	t.Helper()
	var ae apiError
	if err := json.Unmarshal(raw, &ae); err != nil {
		t.Fatalf("error body %q is not typed JSON: %v", raw, err)
	}
	return ae
}

// newChaosServer builds a server with the injector armed and registers
// cleanup. mut further customises the config.
func newChaosServer(t *testing.T, inj *chaos.Injector, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s, _ := newTestServer(t, func(c *Config) {
		c.Chaos = inj
		if mut != nil {
			mut(c)
		}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestChaosScorerPanicIsolated injects exactly one scorer panic and
// asserts the guard invariant over HTTP: one pair errors, the rest of
// the request and every later request score normally.
func TestChaosScorerPanicIsolated(t *testing.T) {
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointScore, Mode: chaos.Panic, Count: 1})
	s, ts := newChaosServer(t, inj, nil)

	resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: somePairs(t, 4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s (one poisoned pair must not fail the request)", resp.StatusCode, raw)
	}
	mr := decodeMatch(t, raw)
	var failed int
	for _, r := range mr.Results {
		if r.Error != "" {
			failed++
			if !strings.Contains(r.Error, "panic") {
				t.Errorf("pair error %q does not surface the panic", r.Error)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d pairs failed, want exactly the 1 injected panic", failed)
	}
	if got := s.Metrics().ScoreFailures.Load(); got != 1 {
		t.Errorf("ScoreFailures = %d, want 1", got)
	}

	// Injection exhausted: the next request is clean.
	resp, raw = postJSON(t, ts, "/v1/match", matchRequest{Pairs: somePairs(t, 4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-injection status %d: %s", resp.StatusCode, raw)
	}
	for i, r := range decodeMatch(t, raw).Results {
		if r.Error != "" {
			t.Errorf("pair %d still failing after injection ended: %s", i, r.Error)
		}
	}
}

// TestChaosOverloadSheds stalls the single worker and pushes more pairs
// than the admission bound: the overflow must shed with typed 429 +
// Retry-After while the queue depth never exceeds the cap, and once the
// stall clears the server recovers fully.
func TestChaosOverloadSheds(t *testing.T) {
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, Mode: chaos.Stall, Delay: 30 * time.Second})
	s, ts := newChaosServer(t, inj, func(c *Config) {
		c.Workers = 1
		c.MaxBatch = 4
		c.MaxQueuedPairs = 8
		c.HighWaterFrac = 0.5
		c.RetryAfter = 2 * time.Second
	})
	defer inj.Disarm()

	pairs := somePairs(t, 4)
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	start := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs})
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") != "2" {
					t.Errorf("Retry-After = %q, want 2", resp.Header.Get("Retry-After"))
				}
				ae := decodeAPIError(t, raw)
				if ae.Code != "overloaded" || ae.RetryAfterMs != 2000 {
					t.Errorf("shed body = %+v, want code=overloaded retry_after_ms=2000", ae)
				}
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	close(start)
	// 6 goroutines × 4 pairs against a cap of 8 and a stalled worker:
	// at most 2 requests can be in flight, so at least one sheds while
	// the stall holds. Wait for the first shed, then check the gauges.
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if shed.Load() == 0 {
		t.Fatal("no request was shed under sustained overload")
	}
	if depth := s.adm.Depth(); depth > 8 {
		t.Fatalf("queue depth %d exceeds the admission cap 8", depth)
	}
	// Above high water (4): /readyz must report degraded 503.
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during overload = %d, want 503 degraded", resp.StatusCode)
	}

	inj.Disarm() // stall clears; the admitted requests complete
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no admitted request completed after the stall cleared")
	}
	if got := s.Metrics().RequestsShed.Load(); got != shed.Load() {
		t.Errorf("RequestsShed = %d, clients saw %d", got, shed.Load())
	}
	// Fully recovered: depth drains to zero, readyz flips back, new
	// requests score.
	for i := 0; s.adm.Depth() != 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if resp, _ := ts.Client().Get(ts.URL + "/readyz"); resp != nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/readyz after recovery = %d", resp.StatusCode)
		}
	}
	if resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs}); resp.StatusCode != http.StatusOK {
		t.Errorf("post-recovery request: %d %s", resp.StatusCode, raw)
	}
}

// TestChaosStalledWorkerTypes504 stalls the first batch: the waiter's
// deadline budget expires into a typed 504, the stalled worker never
// wedges the pool, and the next request (new batch, stall exhausted)
// succeeds.
func TestChaosStalledWorkerTypes504(t *testing.T) {
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, Mode: chaos.Stall, Delay: 30 * time.Second, Count: 1})
	s, ts := newChaosServer(t, inj, func(c *Config) { c.Workers = 1 })
	defer inj.Disarm()

	data, err := json.Marshal(matchRequest{Pairs: somePairs(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "150") // 150ms budget against a 30s stall
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled request status = %d, want 504: %s", resp.StatusCode, raw)
	}
	ae := decodeAPIError(t, raw)
	if ae.Code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", ae.Code)
	}
	if got := s.Metrics().DeadlineExpired.Load(); got != 1 {
		t.Errorf("DeadlineExpired = %d, want 1", got)
	}

	// Only the affected waiters 504ed; the worker unstalls (Count=1 is
	// spent, Disarm as belt and braces) and the pool serves again.
	inj.Disarm()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp2, raw2 := postJSON(t, ts, "/v1/match", matchRequest{Pairs: somePairs(t, 2)})
		if resp2.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered after the stall: %d %s", resp2.StatusCode, raw2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCorruptReloadKeepsServing corrupts model bytes during Reload
// (skipping the startup Load): the reload must fail on the CRC check and
// the old snapshot must keep serving bit-identical scores.
func TestChaosCorruptReloadKeepsServing(t *testing.T) {
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointReload, Mode: chaos.Corrupt, Skip: 1})
	s, ts := newChaosServer(t, inj, nil)

	pairs := somePairs(t, 3)
	_, rawBefore := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs})
	before := decodeMatch(t, rawBefore)

	if err := s.Reload(); err == nil {
		t.Fatal("Reload succeeded despite corrupted model bytes")
	}
	if inj.Fired(chaos.PointReload) == 0 {
		t.Fatal("corrupt fault never fired")
	}

	resp, rawAfter := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after failed reload: %d %s", resp.StatusCode, rawAfter)
	}
	after := decodeMatch(t, rawAfter)
	if after.CRC != before.CRC {
		t.Errorf("model CRC changed across a failed reload: %s → %s", before.CRC, after.CRC)
	}
	for i := range before.Results {
		if after.Results[i].Score != before.Results[i].Score {
			t.Errorf("pair %d: score drifted across a failed reload", i)
		}
	}
}

// TestChaosDrainMidStream closes the server while requests are in
// flight: every response is either a full 200 or a typed 503, nothing
// hangs, and Close's drain guarantee holds (all admitted pairs answered).
func TestChaosDrainMidStream(t *testing.T) {
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, Mode: chaos.Delay, Delay: 20 * time.Millisecond})
	s, ts := newChaosServer(t, inj, func(c *Config) { c.Workers = 2 })

	pairs := somePairs(t, 4)
	var wg sync.WaitGroup
	var ok, unavailable atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs})
				switch resp.StatusCode {
				case http.StatusOK:
					mr := decodeMatch(t, raw)
					for _, r := range mr.Results {
						if r.Error != "" {
							t.Errorf("pair failed during drain: %s", r.Error)
						}
					}
					ok.Add(1)
				case http.StatusServiceUnavailable:
					ae := decodeAPIError(t, raw)
					if ae.Code != "draining" && ae.Code != "canceled" {
						t.Errorf("503 with code %q, want draining/canceled", ae.Code)
					}
					unavailable.Add(1)
				default:
					t.Errorf("unexpected status %d during drain: %s", resp.StatusCode, raw)
				}
			}
		}()
	}
	time.Sleep(60 * time.Millisecond) // let requests flow
	s.Close()                         // drains: admitted pairs answered, then 503s
	time.Sleep(40 * time.Millisecond) // observe post-drain 503s
	close(stop)
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no request succeeded before the drain")
	}
	if unavailable.Load() == 0 {
		t.Error("no request saw the typed draining 503 after Close")
	}
}
