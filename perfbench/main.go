// Command perfbench is the repository's host-cost benchmark. From one
// process it drives the system's public entry points on one of three
// workloads — kernels (direct kernel calls), serve (jobs through an
// in-process pmemserved) and updates (edge-update batches beside
// incremental jobs) — checks every output, and prints a JSON result line
// whose metrics are the end-to-end host costs, or, with -trace 1, the
// per-layer costs of a traced run. README.md has the details; run it with
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/memsim"
)

// maxProcs caps GOMAXPROCS so runs on larger machines load the program the
// same way.
const maxProcs = 2

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	units    int // units of work in the timed phase
	trace    bool
	scale    gen.Scale
	machine  memsim.MachineConfig
	setups   int    // set-ups per untraced run; setup_s is their median
	outDir   string // trace files, simulated statistics, data dirs
	log      io.Writer
}

func newConfig(workload string, seed uint64, seconds float64, trace bool, scale gen.Scale, outDir string, log io.Writer) *config {
	return &config{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		units:    unitsFor(workload, seconds),
		trace:    trace,
		scale:    scale,
		machine:  memsim.Scaled(memsim.OptaneMachine(), scale.Div()),
		setups:   3,
		outDir:   outDir,
		log:      log,
	}
}

// unitSeconds is the nominal length of each workload's unit of work — a
// pass over every kernel, a block of requests, a cycle of batches — on a
// 2-CPU machine. A timed phase runs a whole number of units sized from
// -seconds, so every run does the same work in the same proportions and
// its percentiles compare from run to run.
var unitSeconds = map[string]float64{"kernels": 18, "serve": 1.3, "updates": 1.6}

// unitsFor is the number of units that fill about seconds, at least one.
func unitsFor(workload string, seconds float64) int {
	return max(1, int(math.Round(seconds/unitSeconds[workload])))
}

// load is what one timed phase measured and what its checks found.
type load struct {
	mu          sync.Mutex
	elapsed     time.Duration
	lat         []float64 // every operation's latency, ms
	attempted   int64
	failed      int64
	timedFailed int64 // failed when the timed phase ended
	problems    []string
	notes       []string
}

func (l *load) op(ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lat = append(l.lat, ms)
	l.attempted++
}

func (l *load) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

func (l *load) note(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// finish closes a timed phase of sequential operations recorded with op:
// its elapsed time is the sum of their latencies.
func (l *load) finish(o *obs, root int) *load {
	for _, ms := range l.lat {
		l.elapsed += time.Duration(ms * 1e6)
	}
	o.end(root)
	return l
}

func (l *load) opsPerSecond() float64 {
	return float64(int64(len(l.lat))-l.timedFailed) / l.elapsed.Seconds()
}

type workload interface {
	setup(o *obs, parent int) error
	run(o *obs, units int) (*load, error)
	verify(o *obs, l *load)
	close()
}

var workloads = []string{"kernels", "serve", "updates"}

// newWorkload builds the named workload for a timed phase of units units.
func newWorkload(name string, cfg *config, in inputs, units int) (workload, error) {
	switch name {
	case "kernels":
		return newKernels(cfg, in), nil
	case "serve":
		return newServe(cfg, in), nil
	case "updates":
		return newUpdates(cfg, in, units), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

// endToEnd lists the end-to-end metrics, with their units, in the order
// BENCHMARK.json does.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for trace files and run data")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := newConfig(*workload, *seed, *seconds, *trace == 1, gen.ScaleSmall, *out, os.Stdout)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg *config) (*result, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	fmt.Fprintf(cfg.log, "perfbench workload=%s seed=%d seconds=%g units=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.units, cfg.trace)
	fmt.Fprintf(cfg.log, "machine: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// setUp builds a fresh instance of the configured workload and times it.
func setUp(cfg *config, o *obs, parent int) (workload, float64, error) {
	w, err := newWorkload(cfg.workload, cfg, inputs{}, cfg.units)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC() // the previous set-up's garbage is not this one's cost
	t := time.Now()
	err = w.setup(o, parent)
	s := time.Since(t).Seconds()
	if err != nil {
		w.close()
		return nil, 0, fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	return w, s, nil
}

// runUntraced gives the end-to-end metrics: the median of cfg.setups
// set-ups, then one timed phase on the last of them, then its checks.
func runUntraced(cfg *config) (*result, error) {
	var setups []float64
	var w workload
	for range cfg.setups {
		if w != nil {
			w.close()
		}
		var s float64
		var err error
		if w, s, err = setUp(cfg, nil, -1); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer w.close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l, err := w.run(nil, cfg.units)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	l.timedFailed = l.failed
	w.verify(nil, l)
	tailMs, pct := tail(l.lat)
	values := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       l.opsPerSecond(),
		"p50_ms":          quantile(l.lat, 0.5),
		"tail_ms":         tailMs,
		"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(l.lat)),
	}
	metrics := make(map[string]metric)
	for _, m := range endToEnd {
		metrics[m.name] = metric{values[m.name], m.unit}
	}
	report(cfg, l, metrics)
	fmt.Fprintf(cfg.log, "setup_s is the median of %d set-ups: %.3f s\n", len(setups), setups)
	fmt.Fprintf(cfg.log, "tail_ms is p%g of %d samples; timed phase %.2f s for %d units\n", pct, len(l.lat), l.elapsed.Seconds(), cfg.units)
	return finalResult(l, metrics), nil
}

// runTraced gives the per-layer metrics. It times the workload once
// untraced, for the tracing overhead, then sets it up and runs it again
// with spans and samples recorded, checks and replays included. Layers the
// workload does not reach are then measured by a probe: a seam sweep over
// kron30 plus the other two workloads at their smallest size, traced the
// same way; a metric is taken from the probe only when the workload itself
// recorded nothing for it.
func runTraced(cfg *config) (*result, error) {
	w, _, err := setUp(cfg, nil, -1)
	if err != nil {
		return nil, err
	}
	base, err := w.run(nil, cfg.units)
	w.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	own := &obs{tr: tr, ls: newLayerSet()}
	in := inputs{}
	if w, err = newWorkload(cfg.workload, cfg, in, cfg.units); err != nil {
		return nil, err
	}
	defer w.close()
	setupRoot := tr.start(-1, "bench.setup")
	err = w.setup(own, setupRoot)
	setupS := tr.end(setupRoot) / 1e3
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	l, err := w.run(own, cfg.units)
	if err != nil {
		return nil, err
	}
	l.timedFailed = l.failed
	w.verify(own, l)
	ownEnd := len(tr.snapshot())

	probe := &obs{tr: tr, ls: newLayerSet()}
	probeRoot := tr.start(-1, "bench.probe")
	if err := graphProbe(probe, probeRoot, in, cfg.scale); err != nil {
		l.fail("graph probe: %v", err)
	}
	for _, name := range workloads {
		if name != cfg.workload {
			probeWorkload(cfg, name, probe, probeRoot, in, l)
		}
	}
	tr.end(probeRoot)

	spans := tr.snapshot()
	metrics := layerMetrics(own.ls, probe.ls)
	var ownRoots, probeRoots []int
	for _, s := range spans {
		if s.Parent == -1 && s.ID < ownEnd {
			ownRoots = append(ownRoots, s.ID)
		} else if s.Parent == -1 {
			probeRoots = append(probeRoots, s.ID)
		}
	}
	ownSelf, probeSelf := selfByLayer(spans, ownRoots), selfByLayer(spans, probeRoots)
	for _, layer := range spanLayers {
		v, ok := ownSelf[layer]
		if !ok {
			v = probeSelf[layer]
		}
		metrics["self_ms."+layer] = metric{v, "ms"}
	}
	setupSelf := selfByLayer(spans, []int{setupRoot})
	for _, layer := range []string{"gen", "graph", "server"} {
		metrics["setup."+layer+"_s"] = metric{setupSelf[layer] / 1e3, "s"}
	}
	_, pct := tail(l.lat)
	perOp := func(x *load) float64 { return x.elapsed.Seconds() * 1e3 / float64(len(x.lat)) }
	metrics["trace.overhead_ms_per_op"] = metric{perOp(l) - perOp(base), "ms"}
	metrics["trace.spans"] = metric{float64(len(spans)), "count"}
	metrics["e2e.tail_pct"] = metric{pct, "%"}
	metrics["e2e.samples"] = metric{float64(len(l.lat)), "count"}

	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	report(cfg, l, metrics)
	fmt.Fprintf(cfg.log, "traced set-up %.3f s; %d spans written to %s\n", setupS, len(spans), path)
	return finalResult(l, metrics), nil
}

// probeWorkload runs another workload at probe size on the inputs the
// traced run already has, recording into o; its operations and failures
// count in l.
func probeWorkload(cfg *config, name string, o *obs, parent int, in inputs, l *load) {
	units := 1
	if name == "updates" {
		units = 2 // one cycle before the checkpoint, one after
	}
	pcfg := *cfg
	pcfg.workload, pcfg.units = name, units
	w, err := newWorkload(name, &pcfg, in, units)
	if err != nil {
		l.fail("probe %s: %v", name, err)
		return
	}
	defer w.close()
	if k, ok := w.(*kernels); ok {
		k.backends = k.backends[:1] // raw only: the simulated statistics
	}
	sp := o.span(parent, "bench.setup")
	err = w.setup(o, sp)
	o.end(sp)
	if err != nil {
		l.fail("probe %s: %v", name, err)
		return
	}
	pl, err := w.run(o, units)
	if err != nil {
		l.fail("probe %s: %v", name, err)
		return
	}
	w.verify(o, pl)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += pl.attempted
	l.failed += pl.failed
	for _, p := range pl.problems {
		l.problems = append(l.problems, "probe "+name+": "+p)
	}
}

func finalResult(l *load, metrics map[string]metric) *result {
	return &result{Correct: l.failed == 0, Attempted: max(1, l.attempted), Failed: l.failed, Metrics: metrics}
}

// report prints every metric with its unit, the failures and the notes.
func report(cfg *config, l *load, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(cfg.log, "%-36s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	fmt.Fprintf(cfg.log, "fail_ratio %g (%d of %d operations failed or gave a wrong output)\n",
		float64(l.failed)/float64(max(1, l.attempted)), l.failed, l.attempted)
	for _, p := range l.problems {
		fmt.Fprintln(cfg.log, "FAIL:", p)
	}
	for _, n := range l.notes {
		fmt.Fprintln(cfg.log, "note:", n)
	}
}
