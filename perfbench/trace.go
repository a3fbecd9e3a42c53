package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around calls into each
// layer. A nil tracer records nothing, so the untraced pass runs the
// same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one recorded call. parent is the index of the enclosing span
// (-1 for a root); lane is the Chrome-trace thread it is drawn on.
type span struct {
	name       string
	parent     int
	lane       int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: time.Since(t.t0), end: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// run calls f inside a span and returns the span's duration.
func (t *tracer) run(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent, 0)
	f()
	return t.end(id)
}

// durations returns the durations of every closed span with the given
// name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover (their union, so overlapping children are
// not counted twice).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			cs := t.spans[c]
			a, b := max(cs.start, s.start), min(cs.end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name  string
	calls int
	total time.Duration
	self  time.Duration
}

// layers groups the descendants of root by span name.
func (t *tracer) layers(root int) []layerRow {
	self := t.selfTimes()
	under := func(i int) bool {
		for p := t.spans[i].parent; p >= 0; p = t.spans[p].parent {
			if p == root {
				return true
			}
		}
		return false
	}
	byName := map[string]*layerRow{}
	for i, s := range t.spans {
		if !under(i) {
			continue
		}
		r := byName[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			byName[s.name] = r
		}
		r.calls++
		r.total += s.end - s.start
		r.self += self[i]
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, in microseconds.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.lane + 1})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
