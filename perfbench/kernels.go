package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/memsim"
)

// kernelInputs are the kernels workload's graphs: kron30 has few heavy
// rounds (per-edge cost), uk14 has 1,174 bfs rounds (per-round cost).
var kernelInputs = []string{"kron30", "uk14"}

type kernelOp struct {
	input, app string
	backend    core.Backend
}

// simStat is the simulated side of one kernel execution: the paper's
// numbers, which a host-only change must leave bit-identical.
type simStat struct {
	Seconds  float64         `json:"seconds"`
	Rounds   int             `json:"rounds"`
	Counters memsim.Counters `json:"counters"`
}

// kernels calls the harness's inner loop directly, with no server: every
// app on every input under both storage backends, one pass after another.
type kernels struct {
	cfg      *config
	in       inputs
	params   map[string]frameworks.Params
	backends []core.Backend

	ops    []kernelOp
	first  map[kernelOp]*analytics.Result
	digest map[kernelOp][sha256.Size]byte
}

func newKernels(cfg *config, in inputs) *kernels {
	return &kernels{cfg: cfg, in: in, params: make(map[string]frameworks.Params),
		backends: []core.Backend{core.BackendRaw, core.BackendCompressed}}
}

func (k *kernels) setup(o *obs, parent int) error {
	for _, name := range kernelInputs {
		g, err := k.in.input(o, parent, name, k.cfg.scale)
		if err != nil {
			return err
		}
		k.params[name] = frameworks.DefaultParams(g)
	}
	k.ops = nil
	for _, name := range kernelInputs {
		for _, app := range frameworks.Apps() {
			for _, b := range k.backends {
				k.ops = append(k.ops, kernelOp{name, app, b})
			}
		}
	}
	return nil
}

// run makes passes over every operation, each in a seeded order. Every
// operation starts on a freshly collected heap, so the order does not move
// one operation's garbage collection into another's time; the phase's
// elapsed time is the sum of the operations'.
func (k *kernels) run(o *obs, passes int) (*load, error) {
	rng := rand.New(rand.NewPCG(k.cfg.seed, 0x6b65726e656c73))
	k.first = make(map[kernelOp]*analytics.Result)
	k.digest = make(map[kernelOp][sha256.Size]byte)
	l := &load{}
	root := o.span(-1, "bench.run")
	for pass := 1; pass <= passes; pass++ {
		for _, i := range rng.Perm(len(k.ops)) {
			op := k.ops[i]
			runtime.GC()
			sp := o.span(root, "bench.op")
			t := time.Now()
			res, data, kernelMs, err := direct(o, sp, k.cfg.machine, k.in[op.input], op.app, op.backend, k.params[op.input])
			d := time.Since(t)
			o.end(sp)
			l.elapsed += d
			l.lat = append(l.lat, float64(d.Nanoseconds())/1e6)
			l.attempted++
			if err != nil {
				l.fail("%s %s %s: %v", op.input, op.app, op.backend, err)
				continue
			}
			recordKernel(o, op.input, res, kernelMs)
			if op.backend == core.BackendRaw {
				o.add(fmt.Sprintf("memsim.sim_s.%s.%s", op.input, op.app), res.Seconds)
			}
			sum := sha256.Sum256(data)
			if _, ok := k.first[op]; !ok {
				k.first[op], k.digest[op] = res, sum
			} else if k.digest[op] != sum {
				l.fail("%s %s %s: pass %d result bytes differ from pass 1", op.input, op.app, op.backend, pass)
			}
		}
	}
	o.end(root)
	return l, nil
}

// verify checks raw against compressed outputs, bfs and cc against plain
// references, and the simulated statistics against the previous run of the
// same checkout.
func (k *kernels) verify(o *obs, l *load) {
	sp := o.span(-1, "bench.verify")
	defer o.end(sp)
	refCC := memoCC()
	for _, name := range kernelInputs {
		g := k.in[name]
		for _, app := range frameworks.Apps() {
			raw := k.first[kernelOp{name, app, core.BackendRaw}]
			if raw == nil {
				continue // failed, already counted
			}
			for _, b := range k.backends[1:] {
				if other := k.first[kernelOp{name, app, b}]; other != nil && !sameOutputs(raw, other) {
					l.fail("%s %s: raw and %s outputs differ", name, app, b)
				}
			}
			if !checkReference(g, raw, k.params[name].Source, refCC) {
				l.fail("%s %s: output differs from the reference", name, app)
			}
		}
	}
	k.checkSim(l)
}

// checkSim writes the exact simulated statistics of this run next to the
// trace files and, when an earlier run of the same checkout left them
// there, requires them to be bit-identical.
func (k *kernels) checkSim(l *load) {
	table := make(map[string]simStat)
	for op, res := range k.first {
		table[fmt.Sprintf("%s.%s.%s", op.input, op.app, op.backend)] = simStat{res.Seconds, res.Rounds, res.Counters}
	}
	data, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		l.fail("encoding simulated statistics: %v", err)
		return
	}
	l.note("simulated statistics sha256 %x (%d executions)", sha256.Sum256(data), len(table))
	if len(k.backends) != 2 {
		return // a partial pass is not comparable with a full one
	}
	path := filepath.Join(k.cfg.outDir, fmt.Sprintf("kernels-sim-scale%d.json", k.cfg.scale))
	if prev, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(prev, data) {
			l.fail("simulated statistics differ from the previous run's %s", path)
		}
		return
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		l.fail("writing %s: %v", tmp, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		l.fail("renaming %s: %v", tmp, err)
	}
}

func (k *kernels) close() {}
