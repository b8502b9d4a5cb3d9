package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"

	"pmemgraph/internal/gen"
)

// tinyScale shrinks every input 16x below gen.ScaleSmall.
const tinyScale = gen.Scale(512)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	cfg := newConfig(workload, 7, 0, trace, tinyScale, t.TempDir(), io.Discard)
	cfg.units, cfg.setups = 1, 1
	return cfg
}

func checkResult(t *testing.T, res *result, want []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t failed=%d attempted=%d, want a correct run with no failures", res.Correct, res.Failed, res.Attempted)
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	for name := range res.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
}

func TestTinyRunsHaveNoFailures(t *testing.T) {
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.name)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, err := run(tinyConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, want)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunsReportEveryPerLayerMetric(t *testing.T) {
	var want []string
	for _, m := range perLayer {
		want = append(want, m.name)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, err := run(tinyConfig(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, want)
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range spec.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit || e.Bound == nil {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, e, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, e := range spec.PerLayer {
		m := perLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, e, m.name, m.unit, m.better)
		}
	}
}
