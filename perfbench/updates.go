package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/server"
)

const (
	// updateBatch is the number of edge updates per POSTed batch.
	updateBatch = 250
	// cycleBatches batches make one cycle; after the last but one an
	// incremental pr records a seed, after the last incremental cc,
	// incremental pr (seeded from it) and a plain bfs run one after
	// another. Writes are then two in three operations, so the median falls
	// among them and the tail among the pr jobs, not in the gap between
	// two kinds of operation.
	cycleBatches = 8
	// updateGraph is the registered graph the writes go to.
	updateGraph = "kron30"
)

// updates drives an in-process pmemserved with a data directory, so every
// batch goes through the WAL and fsync on the real disk.
type updates struct {
	cfg             *config
	in              inputs
	cycles          int
	checkpointCycle int // the cycle after which /checkpoint runs once

	g       *graph.Graph
	stream  [][]graph.EdgeUpdate
	bodies  [][]byte
	dataDir string
	srv     *server.Server
	hs      *httptest.Server
	client  *http.Client

	applied     int       // batches acknowledged, in stream order
	checkpoints []int     // applied-batch counts at which checkpoints ran
	writeMs     []float64 // per applied batch
}

// newUpdates sizes the stream for cycles cycles. The checkpoint runs after
// cycle 6 (earlier in short runs), which keeps the overlay after it well
// under the server's |E|/20 background-compaction threshold.
func newUpdates(cfg *config, in inputs, cycles int) *updates {
	return &updates{cfg: cfg, in: in, cycles: cycles, checkpointCycle: max(1, min(6, cycles/2))}
}

func (u *updates) setup(o *obs, parent int) error {
	g, err := u.in.input(o, parent, updateGraph, u.cfg.scale)
	if err != nil {
		return err
	}
	u.g = g
	sp := o.span(parent, "gen.update_stream")
	u.stream, err = gen.UpdateStream(g, u.cycles*cycleBatches, updateBatch, u.cfg.seed, true)
	o.end(sp)
	if err != nil {
		return err
	}
	u.bodies = make([][]byte, len(u.stream))
	for i, ups := range u.stream {
		if u.bodies[i], err = json.Marshal(map[string]any{"updates": ups}); err != nil {
			return err
		}
	}
	if u.dataDir, err = os.MkdirTemp(u.cfg.outDir, "updates-data-"); err != nil {
		return err
	}
	sp = o.span(parent, "server.new")
	u.srv = server.New(server.Config{Machine: u.cfg.machine, Workers: serveWorkers, DataDir: u.dataDir})
	o.end(sp)
	sp = o.span(parent, "server.register")
	_, err = u.srv.Registry().Add(updateGraph, "direct", g)
	o.end(sp)
	if err != nil {
		return err
	}
	sp = o.span(parent, "server.listen")
	u.hs = httptest.NewServer(u.srv.Handler())
	o.end(sp)
	u.client = &http.Client{Timeout: 2 * time.Minute}
	return nil
}

func (u *updates) close() {
	if u.hs != nil {
		u.hs.Close()
	}
	if u.srv != nil {
		u.srv.Close()
	}
	if u.dataDir != "" {
		os.RemoveAll(u.dataDir)
	}
}

// call POSTs body to path and returns the status, the response bytes and
// the latency in milliseconds.
func (u *updates) call(path string, body []byte) (int, []byte, float64) {
	t := time.Now()
	resp, err := u.client.Post(u.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, msSince(t)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := msSince(t)
	if err != nil {
		return 0, nil, ms
	}
	return resp.StatusCode, data, ms
}

// algorithmRE reads the algorithm name from the head of a result body
// (MarshalResult emits app, then algorithm).
var algorithmRE = regexp.MustCompile(`^\{"app":"[a-z]+","algorithm":"([^"]*)"`)

// job submits one job and waits for it.
func (u *updates) job(o *obs, parent int, app string, incremental bool) error {
	body, _ := json.Marshal(server.JobRequest{Graph: updateGraph, App: app, Incremental: incremental})
	sp := o.span(parent, "server.job."+app)
	status, data, _ := u.call("/v1/jobs?wait=1", body)
	o.end(sp)
	if status != http.StatusOK {
		return fmt.Errorf("%s job: HTTP %d", app, status)
	}
	if incremental {
		seeded := 0.0
		if m := algorithmRE.FindSubmatch(data); m != nil && strings.HasSuffix(string(m[1]), "-inc") {
			seeded = 1
		}
		o.add("seeded", seeded)
		o.add("seeded_total", 1)
	}
	return nil
}

// run makes cycles cycles. Its operations are the update POSTs, the jobs
// and the checkpoint. They run one after another, each alone on the
// machine, so the phase's elapsed time is the sum of their latencies; each
// cycle starts on a freshly collected heap, so the previous cycle's result
// bytes are not collected inside its writes.
func (u *updates) run(o *obs, cycles int) (*load, error) {
	u.applied, u.checkpoints, u.writeMs = 0, nil, nil
	l := &load{}
	root := o.span(-1, "bench.run")
	for cycle := 1; cycle <= cycles; cycle++ {
		runtime.GC()
		for b := 0; b < cycleBatches; b++ {
			sp := o.span(root, "server.update")
			status, _, ms := u.call("/v1/graphs/"+updateGraph+"/updates", u.bodies[u.applied])
			o.end(sp)
			l.op(ms)
			o.add("write_ms", ms)
			if status != http.StatusOK {
				l.fail("update batch %d: HTTP %d", u.applied+1, status)
				return l.finish(o, root), nil // the stream no longer matches the graph
			}
			u.writeMs = append(u.writeMs, ms)
			u.applied++
			if b == cycleBatches-2 {
				t := time.Now()
				err := u.job(o, root, "pr", true)
				l.op(msSince(t))
				if err != nil {
					l.fail("%v", err)
				}
			}
		}
		for _, j := range []struct {
			app string
			inc bool
		}{{"cc", true}, {"pr", true}, {"bfs", false}} {
			t := time.Now()
			err := u.job(o, root, j.app, j.inc)
			l.op(msSince(t))
			if err != nil {
				l.fail("cycle %d: %v", cycle, err)
			}
		}
		if cycle == u.checkpointCycle {
			sp := o.span(root, "server.checkpoint")
			status, _, ms := u.call("/v1/graphs/"+updateGraph+"/checkpoint", nil)
			o.add("server.checkpoint_ms", o.end(sp))
			l.op(ms)
			if status != http.StatusOK {
				l.fail("checkpoint: HTTP %d", status)
			}
			u.checkpoints = append(u.checkpoints, u.applied)
		}
	}
	return l.finish(o, root), nil
}

// verify runs cc, pr and bfs on the final epoch through the server and
// requires the outputs of a direct run on the graph.ApplyUpdates rebuild of
// the same batches; bfs and cc are also checked against the references.
// Traced, it then replays the batches through the overlay and the WAL, and
// the last cycle's incremental jobs through the frameworks layer.
func (u *updates) verify(o *obs, l *load) {
	root := o.span(-1, "bench.verify")
	defer o.end(root)
	sp := o.span(root, "graph.apply_updates")
	rebuilt := u.g
	for _, ups := range u.stream[:u.applied] {
		var err error
		if rebuilt, _, err = graph.ApplyUpdates(rebuilt, ups); err != nil {
			l.fail("rebuilding: %v", err)
			return
		}
	}
	o.end(sp)
	seal(o, root, rebuilt)
	params := frameworks.DefaultParams(rebuilt)
	refCC := memoCC()
	for _, app := range []string{"cc", "pr", "bfs"} {
		body, _ := json.Marshal(server.JobRequest{Graph: updateGraph, App: app})
		status, data, _ := u.call("/v1/jobs?wait=1", body)
		l.attempted++
		if status != http.StatusOK {
			l.fail("final-epoch %s: HTTP %d", app, status)
			continue
		}
		served, err := analytics.UnmarshalResult(data)
		if err != nil {
			l.fail("final-epoch %s: %v", app, err)
			continue
		}
		want, _, _, err := direct(o, root, u.cfg.machine, rebuilt, app, core.BackendRaw, params)
		if err != nil {
			l.fail("rebuild %s: %v", app, err)
			continue
		}
		if !sameOutputs(served, want) {
			l.fail("final-epoch %s differs from the ApplyUpdates rebuild", app)
		}
		if !checkReference(rebuilt, served, params.Source, refCC) {
			l.fail("final-epoch %s differs from the reference", app)
		}
	}
	if o != nil {
		if err := u.replay(o, root); err != nil {
			l.fail("replaying the update path: %v", err)
		}
	}
}

// replay times the graph-layer share of each applied batch — Overlay.Apply
// and a WAL append plus fsync — and attributes the rest of the POST latency
// to the server. It then reruns the last cycle's incremental jobs directly.
func (u *updates) replay(o *obs, parent int) error {
	f, err := os.CreateTemp(u.dataDir, "replay-wal-")
	if err != nil {
		return err
	}
	defer f.Close()
	ov := graph.NewOverlay(u.g)
	var prev *graph.Overlay
	var delta graph.Delta
	var entries float64
	next := 0
	for i, ups := range u.stream[:u.applied] {
		if next < len(u.checkpoints) && u.checkpoints[next] == i {
			sp := o.span(parent, "graph.materialize")
			base := ov.Materialize()
			o.end(sp)
			seal(o, parent, base)
			ov = graph.NewOverlay(base)
			next++
		}
		sp := o.span(parent, "graph.overlay_apply")
		nov, d, err := ov.Apply(ups)
		applyMs := o.end(sp)
		if err != nil {
			return err
		}
		prev, ov, delta = ov, nov, d
		entries = max(entries, float64(ov.Entries()))
		sp = o.span(parent, "graph.wal_append")
		err = graph.AppendLog(f, uint64(i+1), ups)
		if err == nil {
			err = f.Sync()
		}
		walMs := o.end(sp)
		if err != nil {
			return err
		}
		o.add("graph.overlay_apply_ms", applyMs)
		o.add("graph.wal_fsync_ms", walMs)
		o.add("server.update_ms", u.writeMs[i]-applyMs-walMs)
	}
	o.add("graph.overlay_entries", entries)
	if prev == nil {
		return nil
	}
	return u.replayIncremental(o, parent, prev, ov, &delta)
}

// replayIncremental records seeds on prev, then runs incremental cc and pr
// on cur, one batch later, from them.
func (u *updates) replayIncremental(o *obs, parent int, prev, cur *graph.Overlay, delta *graph.Delta) error {
	p := frameworks.Galois
	for _, app := range []string{"cc", "pr"} {
		opts := p.Options(app, u.cfg.machine.MaxThreads())
		_, seed, err := p.RunIncrementalOverlayOnOpts(memsim.NewMachine(u.cfg.machine), prev, app, opts, frameworks.DefaultParamsOverlay(prev), nil, nil)
		if err != nil {
			return err
		}
		sp := o.span(parent, "frameworks.incremental."+app)
		res, _, err := p.RunIncrementalOverlayOnOpts(memsim.NewMachine(u.cfg.machine), cur, app, opts, frameworks.DefaultParamsOverlay(cur), seed, delta)
		o.add("frameworks.incremental_ms."+app, o.end(sp))
		if err != nil {
			return fmt.Errorf("incremental %s: %w", app, err)
		}
		if _, err := encode(o, parent, res); err != nil {
			return err
		}
	}
	return nil
}
