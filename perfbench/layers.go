package main

import (
	"fmt"
	"slices"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// spanLayers are the layers the benchmark's spans are named after, and
// whose self time the traced run reports. The engine runs inside the
// analytics kernels and is charged there; its cost shows as the per-edge
// and per-round figures instead.
var spanLayers = []string{"gen", "graph", "memsim", "core", "analytics", "frameworks", "shard", "server", "bench"}

// layerMetric is one per-layer metric: its unit, which direction is
// better, and how it is computed from a traced run's samples (nil for the
// metrics runTraced computes from spans). compute reports false when the
// run recorded nothing for it.
type layerMetric struct {
	name, unit, better string
	compute            func(s *layerSet) (float64, bool)
}

func medianOf(name string) func(*layerSet) (float64, bool) {
	return func(s *layerSet) (float64, bool) {
		xs := s.get(name)
		if len(xs) == 0 {
			return 0, false
		}
		return quantile(xs, 0.5), true
	}
}

func tailOf(name string) func(*layerSet) (float64, bool) {
	return func(s *layerSet) (float64, bool) {
		xs := s.get(name)
		if len(xs) == 0 {
			return 0, false
		}
		v, _ := tail(xs)
		return v, true
	}
}

func sumOf(name string) func(*layerSet) (float64, bool) {
	return func(s *layerSet) (float64, bool) {
		return s.sum(name), len(s.get(name)) > 0
	}
}

// ratioOf is scale·Σnum/Σden.
func ratioOf(num, den string, scale float64) func(*layerSet) (float64, bool) {
	return func(s *layerSet) (float64, bool) {
		d := s.sum(den)
		if d == 0 {
			return 0, false
		}
		return scale * s.sum(num) / d, true
	}
}

// perLayer lists every per-layer metric in the order BENCHMARK.json does.
var perLayer = func() []layerMetric {
	var ms []layerMetric
	add := func(name, unit, better string, f func(*layerSet) (float64, bool)) {
		ms = append(ms, layerMetric{name, unit, better, f})
	}
	for _, in := range []string{"kron30", "uk14", "clueweb12"} {
		add("gen.input_ms."+in, "ms", "lower", medianOf("gen.input_ms."+in))
	}
	for _, l := range []string{"gen", "graph", "server"} {
		add("setup."+l+"_s", "s", "lower", nil)
	}
	add("graph.from_edges_ms", "ms", "lower", medianOf("graph.from_edges_ms"))
	add("graph.compress_ms", "ms", "lower", medianOf("graph.compress_ms"))
	add("graph.decode_ns_per_edge", "ns", "lower", medianOf("graph.decode_ns_per_edge"))
	add("graph.overlay_apply_p50_ms", "ms", "lower", medianOf("graph.overlay_apply_ms"))
	add("graph.overlay_apply_tail_ms", "ms", "lower", tailOf("graph.overlay_apply_ms"))
	add("graph.overlay_entries", "count", "lower", sumOf("graph.overlay_entries"))
	add("graph.wal_fsync_ms", "ms", "lower", medianOf("graph.wal_fsync_ms"))
	add("graph.partition_ms", "ms", "lower", medianOf("graph.partition_ms"))
	add("memsim.accesses", "count", "lower", sumOf("memsim.accesses"))
	add("memsim.host_ns_per_access", "ns", "lower", ratioOf("kernel_ns", "memsim.accesses", 1))
	add("memsim.near_mem_hit_ratio", "ratio", "higher", ratioOf("near_hits", "near_total", 1))
	for _, in := range kernelInputs {
		for _, app := range frameworks.Apps() {
			name := fmt.Sprintf("memsim.sim_s.%s.%s", in, app)
			add(name, "s", "lower", func(s *layerSet) (float64, bool) {
				xs := s.get(name)
				if len(xs) == 0 {
					return 0, false
				}
				return xs[0], true
			})
		}
	}
	add("core.runtime_build_ms", "ms", "lower", medianOf("core.runtime_build_ms"))
	add("engine.rounds", "count", "lower", sumOf("engine.rounds"))
	add("engine.edges", "count", "lower", sumOf("engine.edges"))
	add("engine.host_ns_per_edge", "ns", "lower", ratioOf("engine_ns.kron30", "engine_edges.kron30", 1))
	add("engine.host_us_per_round", "us", "lower", ratioOf("engine_ns.uk14", "engine_rounds.uk14", 1e-3))
	for _, app := range frameworks.Apps() {
		add("analytics.kernel_ms."+app, "ms", "lower", medianOf("analytics.kernel_ms."+app))
	}
	add("analytics.encode_ms", "ms", "lower", medianOf("analytics.encode_ms"))
	add("analytics.encode_bytes", "bytes", "lower", medianOf("analytics.encode_bytes"))
	add("frameworks.incremental_ms.cc", "ms", "lower", medianOf("frameworks.incremental_ms.cc"))
	add("frameworks.incremental_ms.pr", "ms", "lower", medianOf("frameworks.incremental_ms.pr"))
	add("frameworks.seeded_runs", "count", "higher", sumOf("seeded"))
	add("shard.run_ms", "ms", "lower", medianOf("shard.run_ms"))
	add("shard.rounds", "count", "lower", sumOf("shard.rounds"))
	add("server.queue_ms", "ms", "lower", medianOf("server.queue_ms"))
	add("server.run_ms", "ms", "lower", medianOf("server.run_ms"))
	add("server.http_ms", "ms", "lower", medianOf("server.http_ms"))
	add("server.cache_hit_ratio", "ratio", "higher", sumOf("server.cache_hit_ratio"))
	add("server.cache_hit_ms", "ms", "lower", medianOf("server.cache_hit_ms"))
	add("server.kernel_executions", "count", "lower", sumOf("server.kernel_executions"))
	add("server.update_ms", "ms", "lower", medianOf("server.update_ms"))
	add("server.checkpoint_ms", "ms", "lower", medianOf("server.checkpoint_ms"))
	add("server.seed_hit_ratio", "ratio", "higher", ratioOf("seeded", "seeded_total", 1))
	add("write_p50_ms", "ms", "lower", medianOf("write_ms"))
	add("write_tail_ms", "ms", "lower", tailOf("write_ms"))
	for _, l := range spanLayers {
		add("self_ms."+l, "ms", "lower", nil)
	}
	add("trace.overhead_ms_per_op", "ms", "lower", nil)
	add("trace.spans", "count", "lower", nil)
	add("e2e.tail_pct", "%", "higher", nil)
	add("e2e.samples", "count", "higher", nil)
	return ms
}()

// layerMetrics computes every sample-based per-layer metric from the
// workload's own samples, falling back to the probe's.
func layerMetrics(own, probe *layerSet) map[string]metric {
	out := make(map[string]metric)
	for _, m := range perLayer {
		if m.compute == nil {
			continue
		}
		v, ok := m.compute(own)
		if !ok {
			v, _ = m.compute(probe)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// graphProbe times the graph layer's build and decode seams on kron30:
// rebuilding it from its own edge list, compressing the rebuild, one full
// cursor sweep of the compressed form, and a 4-way partition.
func graphProbe(o *obs, parent int, in inputs, scale gen.Scale) error {
	g, err := in.input(o, parent, "kron30", scale)
	if err != nil {
		return err
	}
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := range graph.Node(g.NumNodes()) {
		ws := g.OutWeightsOf(v)
		for i, d := range g.OutNeighbors(v) {
			edges = append(edges, graph.Edge{Src: v, Dst: d, Weight: ws[i]})
		}
	}
	sp := o.span(parent, "graph.from_edges")
	h, err := graph.FromEdges(g.NumNodes(), edges, true, false)
	o.add("graph.from_edges_ms", o.end(sp))
	if err != nil {
		return err
	}
	if !slices.Equal(h.OutOffsets, g.OutOffsets) || !slices.Equal(h.OutEdges, g.OutEdges) {
		return fmt.Errorf("rebuilding kron30 from its edge list changed its adjacency")
	}
	h.BuildIn()
	sp = o.span(parent, "graph.compress")
	z := h.CompressOut()
	h.CompressIn()
	o.add("graph.compress_ms", o.end(sp))
	sp = o.span(parent, "graph.decode")
	var n int64
	for v := range graph.Node(z.NumNodes()) {
		c := z.Cursor(v)
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			n++
		}
	}
	ms := o.end(sp)
	if n != g.NumEdges() {
		return fmt.Errorf("decoding compressed kron30 gave %d edges, want %d", n, g.NumEdges())
	}
	o.add("graph.decode_ns_per_edge", ms*1e6/float64(n))
	memoPartitions(o, parent)("kron30", g, serveShards)
	return nil
}
