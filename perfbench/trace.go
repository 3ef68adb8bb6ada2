package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: perfbench opens it just before
// calling a layer's public function and closes it when the call returns.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`        // 0 for a root span
	Req    int64  `json:"req,omitempty"` // shared by a request's client and handler spans
	N      int    `json:"n,omitempty"`   // items of work the call did (pairs, properties)
	Start  int64  `json:"start_ns"`      // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same code without the overhead.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id, or 0 when tracing is off.
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes span id, recording n items of work.
func (t *tracer) end(id, n int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap each other or
// run past their parent; only their union inside the parent counts.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - time.Duration(covered(children[i], s.Start, s.End))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow is one line of the self-time summary.
type layerRow struct {
	name  string
	count int
	self  time.Duration
}

// breakdown sums self time by span name over the trees rooted at spans
// named root. Because every nanosecond of a root's interval is charged to
// exactly one span of its tree (children nested inside it, not
// overlapping each other), the rows add up to total, the summed root
// duration; the root's own row is the residual no layer claims.
func breakdown(spans []span, root string) (rows []layerRow, total time.Duration) {
	self := selfTimes(spans)
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	rootOf := func(i int) int {
		for spans[i].Parent != 0 {
			p, ok := idx[spans[i].Parent]
			if !ok {
				return -1
			}
			i = p
		}
		return i
	}
	byName := map[string]*layerRow{}
	for i, s := range spans {
		r := rootOf(i)
		if r < 0 || spans[r].Name != root {
			continue
		}
		if i == r {
			total += s.dur()
		}
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			byName[s.Name] = row
		}
		row.count++
		row.self += self[i]
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, total
}

// printBreakdown writes the self-time table of the trees under root.
func printBreakdown(w io.Writer, spans []span, root string) {
	rows, total := breakdown(spans, root)
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "trace: self time under %q (%v in total)\n", root, total.Round(time.Microsecond))
	var sum time.Duration
	for _, r := range rows {
		label := r.name
		if r.name == root {
			label += " (residual)"
		}
		sum += r.self
		fmt.Fprintf(w, "  %-34s %7d spans %12.3f ms %6.2f%%\n", label, r.count, ms(r.self), 100*float64(r.self)/float64(total))
	}
	fmt.Fprintf(w, "  %-34s %19s %12.3f ms %6.2f%%\n", "sum", "", ms(sum), 100*float64(sum)/float64(total))
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats collects per-name span durations and work counts.
type spanStats map[string][]span

func groupSpans(spans []span) spanStats {
	g := spanStats{}
	for _, s := range spans {
		g[s.Name] = append(g[s.Name], s)
	}
	return g
}

// medianMs is the median duration of the spans named name, in ms.
func (g spanStats) medianMs(name string) float64 {
	var xs []float64
	for _, s := range g[name] {
		xs = append(xs, ms(s.dur()))
	}
	return median(xs)
}

// medianPerItemUs is the median over spans named name of duration per
// item of work, in µs.
func (g spanStats) medianPerItemUs(name string) float64 {
	var xs []float64
	for _, s := range g[name] {
		if s.N > 0 {
			xs = append(xs, float64(s.dur())/float64(time.Microsecond)/float64(s.N))
		}
	}
	return median(xs)
}

// items sums the work counts of the spans named name.
func (g spanStats) items(name string) int {
	n := 0
	for _, s := range g[name] {
		n += s.N
	}
	return n
}
