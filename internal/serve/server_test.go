package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leapme/internal/core"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeMatch(t *testing.T, raw []byte) matchResponse {
	t.Helper()
	var mr matchResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatalf("bad /v1/match response %s: %v", raw, err)
	}
	return mr
}

// libraryScorer loads model A through the plain library path (Matcher →
// Scorer), bypassing the server entirely — the reference for
// bit-identical checks.
func libraryScorer(t *testing.T) *core.Scorer {
	t.Helper()
	fixture(t)
	m, err := core.NewMatcher(fixStore, core.DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ReadModel(bytes.NewReader(fixModelA)); err != nil {
		t.Fatal(err)
	}
	sc, err := m.NewScorer()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestMatchEndpointBitIdentical(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pairs := somePairs(t, 8)
	resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	mr := decodeMatch(t, raw)
	if len(mr.Results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(mr.Results), len(pairs))
	}

	ref := libraryScorer(t)
	for i, p := range pairs {
		want, err := ref.Score(
			ref.Featurize(p.A.Name, p.A.Values),
			ref.Featurize(p.B.Name, p.B.Values))
		if err != nil {
			t.Fatal(err)
		}
		got := mr.Results[i]
		if got.Error != "" {
			t.Fatalf("pair %d errored: %s", i, got.Error)
		}
		if got.Score != want {
			t.Errorf("pair %d: served score %v != library score %v (must be bit-identical)", i, got.Score, want)
		}
		if got.Match != ref.Match(want) {
			t.Errorf("pair %d: match decision diverges", i)
		}
	}
}

// TestLoneRequestDoesNotWait pins the work-conserving batcher from the
// outside: a request that finds every worker idle is scored at once. The
// deprecated flush deadline is set to an hour, so any batch held back
// for company would hold this request for that long.
func TestLoneRequestDoesNotWait(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxWait = time.Hour })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Timeout = 5 * time.Second

	resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: somePairs(t, 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if mr := decodeMatch(t, raw); len(mr.Results) != 1 || mr.Results[0].Error != "" {
		t.Fatalf("want one scored pair, got %s", raw)
	}
}

func TestMatchEndpointCacheHitBitIdentical(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := matchRequest{Pairs: somePairs(t, 5)}
	_, raw1 := postJSON(t, ts, "/v1/match", req)
	cold := decodeMatch(t, raw1)
	_, raw2 := postJSON(t, ts, "/v1/match", req)
	warm := decodeMatch(t, raw2)

	for i := range cold.Results {
		if warm.Results[i].Score != cold.Results[i].Score {
			t.Errorf("pair %d: warm (cached) score %v != cold score %v",
				i, warm.Results[i].Score, cold.Results[i].Score)
		}
	}
	if warm.Cache.Hits <= cold.Cache.Hits {
		t.Errorf("second request did not hit the feature cache: cold hits %d, warm hits %d",
			cold.Cache.Hits, warm.Cache.Hits)
	}
	if cold.Cache.Entries == 0 {
		t.Error("cache stayed empty")
	}
}

func TestMatchEndpointValidation(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxPairs = 3 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(body any, want int, label string) {
		t.Helper()
		resp, raw := postJSON(t, ts, "/v1/match", body)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d (%s)", label, resp.StatusCode, want, raw)
		}
	}
	check(matchRequest{}, http.StatusBadRequest, "no pairs")
	check(matchRequest{Pairs: somePairs(t, 4)}, http.StatusBadRequest, "over MaxPairs")
	check(matchRequest{Model: "nope", Pairs: somePairs(t, 1)}, http.StatusNotFound, "unknown model")
	check(matchRequest{Pairs: []pairSpec{{A: propSpec{Name: ""}, B: propSpec{Name: "x"}}}},
		http.StatusBadRequest, "unnamed property")
	check(map[string]any{"pairs": []any{}, "bogus": 1}, http.StatusBadRequest, "unknown field")

	resp, err := ts.Client().Get(ts.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/match: status %d", resp.StatusCode)
	}
}

func TestMatchAllEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fixture(t)
	values := fixData.InstancesByProperty()
	sources := map[string][]propSpec{}
	count := 0
	for _, p := range fixData.Props {
		if len(sources) >= 2 && sources[p.Source] == nil {
			continue
		}
		if len(sources[p.Source]) >= 8 {
			continue
		}
		sources[p.Source] = append(sources[p.Source], propSpec{Name: p.Name, Values: values[p.Key()]})
		count++
	}
	req := matchAllRequest{Sources: sources, Threshold: ptr(0.0), Top: 10}
	resp, raw := postJSON(t, ts, "/v1/match/all", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var mar matchAllResponse
	if err := json.Unmarshal(raw, &mar); err != nil {
		t.Fatal(err)
	}
	if mar.Properties != count {
		t.Errorf("Properties = %d, want %d", mar.Properties, count)
	}
	if mar.Candidates == 0 || mar.Scored != mar.Candidates || mar.Failures != 0 {
		t.Errorf("candidates/scored/failures = %d/%d/%d", mar.Candidates, mar.Scored, mar.Failures)
	}
	// Threshold 0 admits everything; Top caps the list, sorted descending.
	if len(mar.Matches) == 0 || len(mar.Matches) > 10 {
		t.Fatalf("got %d matches", len(mar.Matches))
	}
	for i := 1; i < len(mar.Matches); i++ {
		if mar.Matches[i].Score > mar.Matches[i-1].Score {
			t.Fatal("matches not sorted by descending score")
		}
	}

	// Token blocking must also work and cut the candidate count or keep it.
	req.Blocking = "token"
	resp, raw = postJSON(t, ts, "/v1/match/all", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("token blocking: status %d: %s", resp.StatusCode, raw)
	}
	var blocked matchAllResponse
	json.Unmarshal(raw, &blocked)
	if blocked.Candidates > mar.Candidates {
		t.Errorf("token blocking grew candidates: %d > %d", blocked.Candidates, mar.Candidates)
	}

	req.Blocking = "bogus"
	resp, _ = postJSON(t, ts, "/v1/match/all", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus blocking: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/match/all", matchAllRequest{Sources: map[string][]propSpec{"one": {{Name: "x"}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("single source: status %d", resp.StatusCode)
	}
}

// TestMatchAllNoCandidates: a valid request for which blocking proposes
// no pair is answered 200 with zero candidates and an empty match list,
// not turned away by admission or the batcher.
func TestMatchAllNoCandidates(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, body string }{
		{"no properties", `{"sources":{"00":[],"":[]}}`},
		{"one source without properties", `{"sources":{"s1":[{"name":"zoom"}],"s2":[]}}`},
		{"token blocking, no shared token", `{"sources":{"s1":[{"name":"zoom"}],"s2":[{"name":"weight"}]},"blocking":"token"}`},
		{"ann blocking, no near name", `{"sources":{"s1":[{"name":"zoom"}],"s2":[{"name":"qqqq xxxx"}]},"blocking":"ann"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts, "/v1/match/all", json.RawMessage(tc.body))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var mar matchAllResponse
			if err := json.Unmarshal(raw, &mar); err != nil {
				t.Fatal(err)
			}
			if mar.Candidates != 0 || mar.Scored != 0 || mar.Failures != 0 {
				t.Errorf("candidates/scored/failures = %d/%d/%d, want 0/0/0", mar.Candidates, mar.Scored, mar.Failures)
			}
			if !bytes.Contains(raw, []byte(`"matches":[]`)) {
				t.Errorf("body %s has no empty matches array", raw)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

func TestModelsEndpoint(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	pa := writeModelFile(t, dir, "a.leapme", fixModelA)
	pb := writeModelFile(t, dir, "b.leapme", fixModelB)
	s, err := New(Config{
		Store:  fixStore,
		Models: []ModelSource{{Name: "alpha", Path: pa}, {Name: "beta", Path: pb}},
		Active: "beta",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list []modelDesc
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("model list = %+v", list)
	}
	if list[0].Active || !list[1].Active {
		t.Errorf("active flags wrong: %+v", list)
	}
	if list[0].InDim == 0 || list[0].CRC == "" || len(list[0].Hidden) == 0 {
		t.Errorf("model metadata incomplete: %+v", list[0])
	}

	r2, raw := postJSON(t, ts, "/v1/models", modelsAction{Activate: "alpha"})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("activate: %d %s", r2.StatusCode, raw)
	}
	if s.Registry().Active().Name != "alpha" {
		t.Error("activation did not take effect")
	}
	r2, _ = postJSON(t, ts, "/v1/models", modelsAction{Activate: "nope"})
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("activate unknown: %d", r2.StatusCode)
	}
	r2, raw = postJSON(t, ts, "/v1/models", modelsAction{Reload: true})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", r2.StatusCode, raw)
	}
	r2, _ = postJSON(t, ts, "/v1/models", modelsAction{})
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty action: %d", r2.StatusCode)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d", code)
	}
	postJSON(t, ts, "/v1/match", matchRequest{Pairs: somePairs(t, 2)})
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"leapme_match_requests_total 1",
		"leapme_pairs_scored_total 2",
		"leapme_batches_total",
		`leapme_feature_cache_misses_total{model="default"}`,
		`leapme_model_info{model="default"`,
		"leapme_ready 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// After Close the server drains: readyz flips, scoring answers 503.
	// The probe body is part of the typed error vocabulary (errvocab):
	// JSON with a dispatchable code, not a bare text line.
	s.Close()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after Close = %d", code)
	} else if !strings.Contains(body, `"code":"not_ready"`) {
		t.Errorf("/readyz after Close body = %q, want typed not_ready JSON", body)
	}
	resp, _ := postJSON(t, ts, "/v1/match", matchRequest{Pairs: somePairs(t, 1)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/v1/match after Close = %d", resp.StatusCode)
	}
}

// TestHotSwapUnderLoad hammers /v1/match from several goroutines while the
// model file is repeatedly replaced and reloaded. Zero requests may fail:
// in-flight requests pin their model version; swaps only affect later ones.
func TestHotSwapUnderLoad(t *testing.T) {
	s, path := newTestServer(t, func(c *Config) { c.Workers = 4 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pairs := somePairs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var failures atomic.Int64
	var requests atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, raw := postJSON(t, ts, "/v1/match", matchRequest{Pairs: pairs})
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("request failed during hot swap: %d %s", resp.StatusCode, raw)
					return
				}
				mr := decodeMatch(t, raw)
				for i, r := range mr.Results {
					if r.Error != "" {
						failures.Add(1)
						t.Errorf("pair %d failed during hot swap: %s", i, r.Error)
					}
				}
			}
		}()
	}

	versions := [][]byte{fixModelB, fixModelA}
	for swap := 0; swap < 6; swap++ {
		time.Sleep(20 * time.Millisecond)
		if err := os.WriteFile(path, versions[swap%2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", swap, err)
		}
	}
	cancel()
	wg.Wait()
	if requests.Load() == 0 {
		t.Fatal("load generator made no requests")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across 6 hot swaps", failures.Load(), requests.Load())
	}
	if got := s.Metrics().ModelSwaps.Load(); got < 6 {
		t.Errorf("ModelSwaps = %d, want >= 6", got)
	}
}

func TestServerConfigErrors(t *testing.T) {
	fixture(t)
	if _, err := New(Config{Store: fixStore}); err == nil {
		t.Error("New accepted zero models")
	}
	path := writeModelFile(t, t.TempDir(), "m.leapme", fixModelA)
	if _, err := New(Config{
		Store:  fixStore,
		Models: []ModelSource{{Name: "m", Path: path}},
		Active: "other",
	}); err == nil {
		t.Error("New accepted unknown Active model")
	}
	if _, err := New(Config{
		Store:  fixStore,
		Models: []ModelSource{{Name: "m", Path: "/does/not/exist"}},
	}); err == nil {
		t.Error("New accepted missing model file")
	}
}
