package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Fuzzers for the HTTP JSON decoding paths. The server must never panic
// on hostile bodies, must answer every request with a well-formed status
// (2xx or 4xx — a 5xx here would mean malformed input reached the model
// layer), and must keep error responses as JSON.
//
// The corpus seeds cover the interesting decode branches: valid
// requests, unknown fields, wrong JSON types, truncated documents,
// oversized pair lists, and non-UTF-8 noise.

// fuzzServer builds one shared server for a fuzz run. Fuzz targets must
// not call f.Fatal from inside the worker, so construction happens on
// the *testing.F before the first f.Fuzz call.
func fuzzServer(f *testing.F) *httptest.Server {
	f.Helper()
	s, _ := newTestServer(f, nil)
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)
	return ts
}

// postFuzz sends body to path and applies the shared invariants.
func postFuzz(t *testing.T, ts *httptest.Server, path string, body []byte) {
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: transport error: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		t.Fatalf("%s: status %d on body %q — server-side failure from client input",
			path, resp.StatusCode, truncate(body))
	}
	ct := resp.Header.Get("Content-Type")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("%s: content type %q, want application/json", path, ct)
	}
	var sink any
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		t.Fatalf("%s: status %d with non-JSON body: %v", path, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		// Error envelope: {"error": "..."} with a non-empty message.
		m, ok := sink.(map[string]any)
		if !ok {
			t.Fatalf("%s: status %d error body is not an object: %v", path, resp.StatusCode, sink)
		}
		if msg, _ := m["error"].(string); msg == "" {
			t.Fatalf("%s: status %d without an error message: %v", path, resp.StatusCode, m)
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

func FuzzMatchRequest(f *testing.F) {
	ts := fuzzServer(f)
	f.Add([]byte(`{"pairs":[{"a":{"name":"zoom","values":["4x"]},"b":{"name":"optical zoom"}}]}`))
	f.Add([]byte(`{"model":"default","threshold":0.5,"pairs":[]}`))
	f.Add([]byte(`{"pairs":[{"a":{"name":""},"b":{"name":""}}]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"pairs":"not-an-array"}`))
	f.Add([]byte(`{"threshold":"high"}`))
	f.Add([]byte(`{"pairs":[{"a":{"name":"x"`)) // truncated
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\xff\xfe{"))
	f.Add([]byte(`{"model":"no-such-model","pairs":[{"a":{"name":"a"},"b":{"name":"b"}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		postFuzz(t, ts, "/v1/match", body)
	})
}

func FuzzMatchAllRequest(f *testing.F) {
	ts := fuzzServer(f)
	f.Add([]byte(`{"sources":{"s1":[{"name":"zoom","values":["4x"]}],"s2":[{"name":"optical zoom"}]}}`))
	f.Add([]byte(`{"sources":{},"top":3}`))
	f.Add([]byte(`{"sources":{"s1":[]},"blocking":true}`))
	f.Add([]byte(`{"sources":null}`))
	f.Add([]byte(`{"sources":{"s1":"oops"}}`))
	f.Add([]byte(`{"top":-1,"sources":{"a":[{"name":"n"}],"b":[{"name":"n"}]}}`))
	f.Add([]byte(`{"sources":{"a":[{"name":"n","values"`)) // truncated
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte("\xef\xbb\xbf{}"))
	f.Add([]byte(`{"sources":{"00":[],"":[]}}`)) // blocking yields no pair
	f.Fuzz(func(t *testing.T, body []byte) {
		postFuzz(t, ts, "/v1/match/all", body)
	})
}
