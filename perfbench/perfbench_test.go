package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.99, 3.97}, {1, 4},
	} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestWithinSLOCountsFailuresAsMisses(t *testing.T) {
	at := func(latMs int, ok bool) op {
		return op{sched: 0, sent: 0, done: time.Duration(latMs) * time.Millisecond, ok: ok}
	}
	ops := []op{
		at(5, true),   // within
		at(10, true),  // exactly at the limit: within
		at(11, true),  // too slow
		at(1, false),  // fast but failed: a miss
		at(50, false), // slow and failed
	}
	if got := withinSLO(ops, 10*time.Millisecond); got != 2.0/5 {
		t.Errorf("withinSLO = %v, want 0.4", got)
	}
	if got := okLatenciesMs(ops); len(got) != 3 {
		t.Errorf("okLatenciesMs kept %d latencies, want the 3 successful ones", len(got))
	}
	if got := withinSLO(nil, time.Second); got != 0 {
		t.Errorf("withinSLO of no operations = %v", got)
	}
}

// TestOpenLoopTimesFromSchedule stalls the server so the second request,
// due 10 ms after the first, cannot start until the first is answered:
// its latency must include that wait, counted from when it was due.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(30 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	s := &server{url: ts.URL, client: ts.Client()}
	sched := []time.Duration{0, 10 * time.Millisecond}
	ops, res := s.openLoop(nil, "/", [][]byte{nil, nil}, sched)
	for k, x := range res {
		if !x.ok() {
			t.Fatalf("request %d: %+v", k, x)
		}
	}
	if ops[1].sched != sched[1] {
		t.Errorf("request 1 scheduled at %v, want %v", ops[1].sched, sched[1])
	}
	// Served one at a time, request 1 is answered no earlier than 60 ms
	// after the start, so at least 50 ms after it was due.
	if lat := ops[1].latency(); lat < 50*time.Millisecond {
		t.Errorf("request 1 latency %v, want >= 50ms from its scheduled time", lat)
	}
	if ops[1].latency() != ops[1].done-ops[1].sched || ops[1].late() != ops[1].sent-ops[1].sched {
		t.Errorf("latency and lateness must run from the scheduled time: %+v", ops[1])
	}
	if ops[1].late() < 0 {
		t.Errorf("request 1 sent %v before it was due", -ops[1].late())
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"offline-match", "serve-match", "serve-match-all"} {
		mk := workloads[name]
		digest := func(seed int64) [32]byte {
			w, err := mk(seed, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return w.digest()
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

func TestSelfTimeAndResidual(t *testing.T) {
	// Overlapping children and one running past its parent: only their
	// union inside the parent is subtracted.
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
	}
	if got := selfTimes(spans)[0]; got != 50 {
		t.Errorf("root self time = %d, want 50", got)
	}

	// A nested tree: the rows of the breakdown, the root's residual
	// included, add up to the root's duration exactly.
	tree := []span{
		{Name: "job", ID: 1, Start: 0, End: 100},
		{Name: "train", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "kernel", ID: 3, Parent: 2, Start: 15, End: 25},
		{Name: "match", ID: 4, Parent: 1, Start: 50, End: 70},
		{Name: "job", ID: 5, Start: 200, End: 210},
		{Name: "other", ID: 6, Start: 0, End: 1000},
	}
	rows, total := breakdown(tree, "job")
	if total != 110 {
		t.Fatalf("total = %d, want the two job spans' 110", total)
	}
	got := map[string]time.Duration{}
	var sum time.Duration
	for _, r := range rows {
		got[r.name] = r.self
		sum += r.self
	}
	want := map[string]time.Duration{"job": 60, "train": 20, "kernel": 10, "match": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s self time = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["other"]; ok {
		t.Errorf("a span outside the job trees was counted")
	}
	if sum != total {
		t.Errorf("self times sum to %d, want the total %d", sum, total)
	}
}

func TestF1(t *testing.T) {
	c := prf{tp: 3, fp: 1, fn: 2}
	p, r := 0.75, 0.6
	if got, want := c.f1(), 2*p*r/(p+r); got != want {
		t.Errorf("f1 = %v, want %v", got, want)
	}
	if got := (prf{}).f1(); got != 0 {
		t.Errorf("f1 of nothing = %v", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root of the repository in
// step with the workloads and metrics perfbench reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, perfbench %v", names, want)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEndMetrics)
	same("per_layer", cfg.PerLayer, layerMetrics)
}
