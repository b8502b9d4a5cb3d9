package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system. Its
// name starts with the layer ("core.new", "analytics.kernel.bfs"); Parent is
// the ID of the span that caused it, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return float64(now-t.spans[id].Start) / 1e6
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// obs is what a traced phase records into: spans on a shared tracer and
// per-layer samples in its own layerSet. A nil *obs records nothing, which
// is how the untraced phases that give the end-to-end numbers run.
type obs struct {
	tr *tracer
	ls *layerSet
}

func (o *obs) span(parent int, name string) int {
	if o == nil {
		return -1
	}
	return o.tr.start(parent, name)
}

func (o *obs) end(id int) float64 {
	if o == nil {
		return 0
	}
	return o.tr.end(id)
}

func (o *obs) add(name string, v float64) {
	if o != nil {
		o.ls.add(name, v)
	}
}

// layerSet collects named samples; layerMetrics turns them into metrics.
type layerSet struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newLayerSet() *layerSet { return &layerSet{samples: make(map[string][]float64)} }

func (s *layerSet) add(name string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples[name] = append(s.samples[name], v)
}

func (s *layerSet) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples[name]
}

func (s *layerSet) sum(name string) float64 {
	total := 0.0
	for _, v := range s.get(name) {
		total += v
	}
	return total
}

// layerOf is the layer a span name belongs to: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums, per layer, the self time in milliseconds of the spans
// descending from any of roots (roots included): each span's duration minus
// the part of its interval covered by its children. Children of one span can
// overlap when they ran concurrently, so their intervals are merged first.
func selfByLayer(spans []span, roots []int) map[string]float64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make(map[string]float64)
	var walk func(id int)
	walk = func(id int) {
		s := spans[id]
		if s.End < 0 {
			return
		}
		var ivs [][2]int64
		for _, c := range children[id] {
			if cs := spans[c]; cs.End >= 0 {
				ivs = append(ivs, [2]int64{cs.Start, cs.End})
			}
			walk(c)
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e6
	}
	for _, r := range roots {
		walk(r)
	}
	return self
}
