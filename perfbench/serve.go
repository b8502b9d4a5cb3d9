package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/server"
)

// serveInputs are the graphs the serve workload registers.
var serveInputs = []string{"kron30", "clueweb12"}

const (
	// serveWorkers is the server's worker count. One closed-loop client
	// sends the requests, so each job runs alone on the machine and its
	// latency is its own cost, not that of whatever else is running.
	serveWorkers = 2
	// serveRepeats requests per block repeat an earlier request's key
	// (about two in five).
	serveRepeats = 10
	// serveRepeatWindow is how far back a repeat may reach, in cacheable
	// requests.
	serveRepeatWindow = 32
	// servePool is the number of highest-degree vertices a graph's fresh
	// sources are drawn from, so that every traversal covers the graph.
	servePool = 512
	// serveShards is the fan-out of the sharded requests.
	serveShards = 4
)

// sourceApps take a source vertex; the rest have one key per graph.
var sourceApps = map[string]bool{"bfs": true, "sssp": true, "bc": true}

// serve drives an in-process pmemserved (server.New plus its Handler behind
// a loopback listener) with a closed-loop client POSTing /v1/jobs?wait=1.
type serve struct {
	cfg    *config
	in     inputs
	pools  map[string][]graph.Node
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client

	// Request generation state.
	rng       *rand.Rand
	next      map[string]int // next fresh pool index per graph|app
	cacheable []server.JobRequest
	reqs      []server.JobRequest

	served []servedJob
}

// servedJob is one request's outcome as the client saw it.
type servedJob struct {
	req    server.JobRequest
	status int
	ms     float64
	hit    bool
	jobID  string
	sum    [sha256.Size]byte
}

func newServe(cfg *config, in inputs) *serve {
	return &serve{cfg: cfg, in: in, pools: make(map[string][]graph.Node)}
}

func (s *serve) setup(o *obs, parent int) error {
	for _, name := range serveInputs {
		g, err := s.in.input(o, parent, name, s.cfg.scale)
		if err != nil {
			return err
		}
		sp := o.span(parent, "gen.sources")
		pool := gen.SortNodesByDegreeDesc(g)
		o.end(sp)
		s.pools[name] = pool[:min(servePool, len(pool))]
	}
	sp := o.span(parent, "server.new")
	s.srv = server.New(server.Config{Machine: s.cfg.machine, Workers: serveWorkers})
	o.end(sp)
	for _, name := range serveInputs {
		sp := o.span(parent, "server.register")
		_, err := s.srv.Registry().Add(name, "direct", s.in[name])
		o.end(sp)
		if err != nil {
			return err
		}
	}
	sp = o.span(parent, "server.listen")
	s.hs = httptest.NewServer(s.srv.Handler())
	o.end(sp)
	s.client = &http.Client{Timeout: 2 * time.Minute}
	return nil
}

func (s *serve) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// fresh gives req a key no earlier request has: a new source for the
// source apps, no_cache for the others (which have one key per graph).
func (s *serve) fresh(req server.JobRequest) server.JobRequest {
	if !sourceApps[req.App] {
		req.NoCache = true
		return req
	}
	k := req.Graph + "|" + req.App
	pool := s.pools[req.Graph]
	src := pool[s.next[k]%len(pool)]
	s.next[k]++
	req.Params = &server.ParamOverrides{Source: &src}
	return req
}

// serveMix is every block's fresh requests: the cheap kron30 bfs is the
// most common kind, so the median falls among them; one request in eight
// uses the compressed backend and one in eight runs sharded; the heaviest
// kinds (kron30 pr, sharded clueweb12 bfs) recur in every block, so the
// tail falls among them. clueweb12's many bfs rounds weight per-round cost.
var serveMix = []server.JobRequest{
	{Graph: "kron30", App: "bfs"},
	{Graph: "kron30", App: "bfs"},
	{Graph: "kron30", App: "bfs"},
	{Graph: "kron30", App: "bfs", Backend: "compressed"},
	{Graph: "kron30", App: "bfs", Shards: serveShards},
	{Graph: "kron30", App: "sssp", Backend: "compressed"},
	{Graph: "kron30", App: "bc", Shards: serveShards},
	{Graph: "kron30", App: "cc"},
	{Graph: "kron30", App: "kcore"},
	{Graph: "kron30", App: "pr"},
	{Graph: "clueweb12", App: "bfs"},
	{Graph: "clueweb12", App: "bfs", Backend: "compressed"},
	{Graph: "clueweb12", App: "bfs", Shards: serveShards},
	{Graph: "clueweb12", App: "kcore"},
}

// genBlock appends one block to the request sequence: serveMix with fresh
// keys plus serveRepeats repeats of recent cacheable keys, in a seeded
// order.
func (s *serve) genBlock() {
	fresh := make([]server.JobRequest, len(serveMix))
	for i, req := range serveMix {
		fresh[i] = s.fresh(req)
	}
	s.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	kinds := make([]bool, len(fresh)+serveRepeats) // true = repeat
	for i := range serveRepeats {
		kinds[i] = true
	}
	// Reshuffle until every repeat has an earlier cacheable request to
	// repeat (which only constrains the first block).
	for valid := false; !valid; {
		s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		valid = true
		seen, f := len(s.cacheable), 0
		for _, repeat := range kinds {
			if repeat {
				valid = valid && seen > 0
				continue
			}
			if !fresh[f].NoCache {
				seen++
			}
			f++
		}
	}
	for _, repeat := range kinds {
		var req server.JobRequest
		if repeat {
			w := min(len(s.cacheable), serveRepeatWindow)
			req = s.cacheable[len(s.cacheable)-1-s.rng.IntN(w)]
		} else {
			req, fresh = fresh[0], fresh[1:]
			if !req.NoCache {
				s.cacheable = append(s.cacheable, req)
			}
		}
		s.reqs = append(s.reqs, req)
	}
}

// run sends blocks blocks of requests, one after another.
func (s *serve) run(o *obs, blocks int) (*load, error) {
	s.rng = rand.New(rand.NewPCG(s.cfg.seed, 0x7365727665))
	s.next = make(map[string]int)
	s.cacheable, s.reqs = nil, nil
	for range blocks {
		s.genBlock()
	}
	s.served = make([]servedJob, len(s.reqs))
	l := &load{}
	root := o.span(-1, "bench.run")
	start := time.Now()
	for i, req := range s.reqs {
		s.served[i] = s.post(o, root, req)
	}
	l.elapsed = time.Since(start)
	o.end(root)
	for _, sj := range s.served {
		l.attempted++
		l.lat = append(l.lat, sj.ms)
		if sj.status != http.StatusOK {
			l.fail("%s %s: HTTP %d", sj.req.Graph, sj.req.App, sj.status)
		}
	}
	if o != nil {
		s.recordServer(o)
	}
	return l, nil
}

// post submits one job and waits for its result bytes.
func (s *serve) post(o *obs, parent int, req server.JobRequest) servedJob {
	sj := servedJob{req: req}
	body, err := json.Marshal(req)
	if err != nil {
		return sj
	}
	sp := o.span(parent, "server.job."+req.App)
	t := time.Now()
	resp, err := s.client.Post(s.hs.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		sj.status = resp.StatusCode
		sj.hit = resp.Header.Get("X-Cache") == "hit"
		sj.jobID = resp.Header.Get("X-Job-Id")
		sj.sum = sha256.Sum256(data)
		if err != nil {
			sj.status = 0
		}
	}
	sj.ms = msSince(t)
	o.end(sp)
	return sj
}

// recordServer adds the server layer's samples: queue and run time from
// each job's status, the HTTP share of the client latency, cache hits.
func (s *serve) recordServer(o *obs) {
	hits := 0
	for _, sj := range s.served {
		if sj.status != http.StatusOK {
			continue
		}
		if job, ok := s.srv.Job(sj.jobID); ok {
			st := job.Status()
			q, r := st.QueueSeconds*1e3, st.RunSeconds*1e3
			o.add("server.queue_ms", q)
			o.add("server.run_ms", r)
			o.add("server.http_ms", sj.ms-q-r)
		}
		if sj.hit {
			hits++
			o.add("server.cache_hit_ms", sj.ms)
		}
	}
	o.add("server.cache_hit_ratio", float64(hits)/float64(max(1, len(s.served))))
	o.add("server.kernel_executions", float64(s.srv.Stats().KernelExecutions))
}

// verify replays every distinct key that was served directly and requires
// each served body to equal the direct-run bytes; bfs and cc replays are
// also checked against the plain references. Untraced, the replays run on
// serveWorkers goroutines; traced, one at a time so their spans are clean.
func (s *serve) verify(o *obs, l *load) {
	root := o.span(-1, "bench.verify")
	defer o.end(root)
	var order []string
	byKey := make(map[string][]int)
	for i, sj := range s.served {
		if sj.status != http.StatusOK {
			continue
		}
		k := keyOf(sj.req)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	refCC := memoCC()
	parts := memoPartitions(o, root)
	cache := server.NewCache(0)
	replay := func(k string) {
		req := s.served[byKey[k][0]].req
		g := s.in[req.Graph]
		params := frameworks.DefaultParams(g)
		if req.Params != nil && req.Params.Source != nil {
			params.Source = *req.Params.Source
		}
		backend, err := core.ParseBackend(req.Backend)
		var res *analytics.Result
		var data []byte
		if err == nil && req.Shards > 0 {
			res, data, err = s.replaySharded(o, root, parts(req.Graph, g, req.Shards), req.App, backend, params)
		} else if err == nil {
			var kernelMs float64
			res, data, kernelMs, err = direct(o, root, s.cfg.machine, g, req.App, backend, params)
			if err == nil {
				recordKernel(o, req.Graph, res, kernelMs)
			}
		}
		if err == nil && o != nil {
			sp := o.span(root, "server.cache")
			cache.Put(k, data)
			_, _ = cache.Get(k) // a hit: the replayed bytes were just stored
			o.end(sp)
		}
		sum := sha256.Sum256(data)
		if err != nil {
			l.fail("replaying %s: %v", k, err)
			return
		}
		for _, i := range byKey[k] {
			if s.served[i].sum != sum {
				l.fail("served body for %s differs from the direct run", k)
			}
		}
		if !checkReference(g, res, params.Source, refCC) {
			l.fail("%s: output differs from the reference", k)
		}
	}
	workers := serveWorkers
	if o != nil {
		workers = 1
	}
	forEach(order, workers, replay)
}

// replaySharded runs a sharded job the way the job runner does.
func (s *serve) replaySharded(o *obs, parent int, part *graph.Partition, app string, backend core.Backend, params frameworks.Params) (*analytics.Result, []byte, error) {
	opts := frameworks.Galois.Options(app, s.cfg.machine.MaxThreads())
	opts.Backend = backend
	sp := o.span(parent, "shard.run."+app)
	res, err := frameworks.RunShardedOnOpts(s.cfg.machine, part, app, opts, params)
	o.add("shard.run_ms", o.end(sp))
	if err != nil {
		return nil, nil, err
	}
	o.add("shard.rounds", float64(res.Rounds))
	data, err := encode(o, parent, res)
	return res, data, err
}

// keyOf identifies the result a request asks for: no_cache changes only
// whether the cache is consulted, not the bytes.
func keyOf(req server.JobRequest) string {
	req.NoCache = false
	data, _ := json.Marshal(req) // a JobRequest always encodes
	return string(data)
}

// forEach calls fn on every item from a fixed set of goroutines.
func forEach[T any](items []T, workers int, fn func(T)) {
	var wg sync.WaitGroup
	ch := make(chan T)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		ch <- it
	}
	close(ch)
	wg.Wait()
}

// memoCC memoizes refComponents per graph, safely across goroutines.
func memoCC() func(*graph.Graph) []uint32 {
	var mu sync.Mutex
	memo := make(map[*graph.Graph][]uint32)
	return func(g *graph.Graph) []uint32 {
		mu.Lock()
		defer mu.Unlock()
		if labels, ok := memo[g]; ok {
			return labels
		}
		labels := refComponents(g)
		memo[g] = labels
		return labels
	}
}

// memoPartitions memoizes graph.NewPartition per graph and shard count.
func memoPartitions(o *obs, parent int) func(name string, g *graph.Graph, shards int) *graph.Partition {
	var mu sync.Mutex
	memo := make(map[string]*graph.Partition)
	return func(name string, g *graph.Graph, shards int) *graph.Partition {
		mu.Lock()
		defer mu.Unlock()
		k := fmt.Sprintf("%s/%d", name, shards)
		if p, ok := memo[k]; ok {
			return p
		}
		sp := o.span(parent, "graph.partition")
		p, err := graph.NewPartition(g, shards)
		o.add("graph.partition_ms", o.end(sp))
		if err != nil {
			panic(err) // shards is a positive constant
		}
		memo[k] = p
		return p
	}
}
