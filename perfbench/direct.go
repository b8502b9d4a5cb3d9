package main

import (
	"fmt"
	"slices"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// inputs caches the sealed graphs of one set-up, so the probes of a traced
// run reuse what the workload already generated.
type inputs map[string]*graph.Graph

// input returns the named Table 3 input, generating and sealing it on first
// use. Generation is timed as gen.input_ms.<name>.
func (in inputs) input(o *obs, parent int, name string, scale gen.Scale) (*graph.Graph, error) {
	if g, ok := in[name]; ok {
		return g, nil
	}
	sp := o.span(parent, "gen.input."+name)
	g, _, err := gen.Input(name, scale)
	o.add("gen.input_ms."+name, o.end(sp))
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	seal(o, parent, g)
	in[name] = g
	return g, nil
}

// seal materializes what the serving registry materializes on load — edge
// weights, the transpose, then both compressed directions — so every run
// over g afterwards only reads it.
func seal(o *obs, parent int, g *graph.Graph) {
	sp := o.span(parent, "graph.seal")
	if !g.HasWeights() {
		g.AddRandomWeights(frameworks.DefaultWeightMax, frameworks.DefaultWeightSeed)
	}
	g.BuildIn()
	o.end(sp)
	sp = o.span(parent, "graph.compress")
	g.CompressOut()
	g.CompressIn()
	o.end(sp)
}

// direct runs app once the way the serving layer's job runner does — a
// fresh simulated machine, core.New, Profile.Run under Galois, then
// analytics.MarshalResult — and records each call as a span.
func direct(o *obs, parent int, mc memsim.MachineConfig, g *graph.Graph, app string, backend core.Backend, params frameworks.Params) (*analytics.Result, []byte, float64, error) {
	p := frameworks.Galois
	sp := o.span(parent, "memsim.new_machine")
	m := memsim.NewMachine(mc)
	o.end(sp)
	opts := p.Options(app, mc.MaxThreads())
	opts.Backend = backend
	sp = o.span(parent, "core.new")
	r, err := core.New(m, g, opts)
	o.add("core.runtime_build_ms", o.end(sp))
	if err != nil {
		return nil, nil, 0, err
	}
	defer r.Close()
	sp = o.span(parent, "analytics.kernel."+app)
	res, err := p.Run(r, app, params)
	kernelMs := o.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := encode(o, parent, res)
	return res, data, kernelMs, err
}

func encode(o *obs, parent int, res *analytics.Result) ([]byte, error) {
	sp := o.span(parent, "analytics.encode")
	data, err := analytics.MarshalResult(res)
	o.add("analytics.encode_ms", o.end(sp))
	o.add("analytics.encode_bytes", float64(len(data)))
	return data, err
}

// recordKernel adds one kernel execution's samples: its host time, and the
// simulated work it charged (memory accesses, engine rounds and edges) that
// host time is divided by. input names the graph, for the per-edge (kron30)
// and per-round (uk14) engine costs.
func recordKernel(o *obs, input string, res *analytics.Result, kernelMs float64) {
	if o == nil {
		return
	}
	c := res.Counters
	o.add("analytics.kernel_ms."+res.App, kernelMs)
	o.add("kernel_ns", kernelMs*1e6)
	o.add("memsim.accesses", float64(c.Reads+c.Writes))
	o.add("near_hits", float64(c.NearMemHits))
	o.add("near_total", float64(c.NearMemHits+c.NearMemMisses))
	if len(res.Trace) == 0 {
		return // not an engine kernel
	}
	var edges int64
	for _, rs := range res.Trace {
		edges += rs.Edges
	}
	o.add("engine.rounds", float64(len(res.Trace)))
	o.add("engine.edges", float64(edges))
	o.add("engine_ns."+input, kernelMs*1e6)
	o.add("engine_rounds."+input, float64(len(res.Trace)))
	o.add("engine_edges."+input, float64(edges))
}

// sameOutputs reports whether two results of one app computed the same
// answer, ignoring everything that describes how it was charged.
func sameOutputs(a, b *analytics.Result) bool {
	return a.App == b.App &&
		slices.Equal(a.Dist, b.Dist) &&
		slices.Equal(a.Labels, b.Labels) &&
		slices.Equal(a.Rank, b.Rank) &&
		slices.Equal(a.Centrality, b.Centrality) &&
		slices.Equal(a.InCore, b.InCore) &&
		a.Triangles == b.Triangles
}

// refBFS is a plain sequential BFS over out-edges.
func refBFS(g *graph.Graph, src graph.Node) []uint32 {
	dist := make([]uint32, g.NumNodes())
	for i := range dist {
		dist[i] = analytics.Infinity
	}
	dist[src] = 0
	queue := []graph.Node{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range g.OutNeighbors(v) {
			if dist[d] == analytics.Infinity {
				dist[d] = dist[v] + 1
				queue = append(queue, d)
			}
		}
	}
	return dist
}

// refComponents labels every node with the smallest node ID of its weakly
// connected component, by union-find over the out-edges.
func refComponents(g *graph.Graph) []uint32 {
	n := g.NumNodes()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		for _, d := range g.OutNeighbors(graph.Node(v)) {
			a, b := find(uint32(v)), find(d)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = find(uint32(v))
	}
	return labels
}

// checkReference compares a bfs or cc result with the plain reference;
// other apps pass. refCC memoizes the components of each graph.
func checkReference(g *graph.Graph, res *analytics.Result, src graph.Node, refCC func(*graph.Graph) []uint32) bool {
	switch res.App {
	case "bfs":
		return slices.Equal(res.Dist, refBFS(g, src))
	case "cc":
		return slices.Equal(res.Labels, refCC(g))
	}
	return true
}
