package pmemgraph

// One benchmark per table and figure in the paper's evaluation. Each
// regenerates the experiment through the harness at ScaleSmall with
// trimmed sweeps so `go test -bench=.` completes in minutes; run
// `cmd/pmembench -scale full` for the full-scale harness, and
// `cmd/pmembench -quick -json BENCH_figures.json` to record every
// experiment's rows as JSON (the file CI uploads as an artifact).

import (
	"io"
	"os"
	"testing"

	"pmemgraph/internal/bench"
	"pmemgraph/internal/gen"
)

// benchSink accumulates machine-readable results across every benchmark in
// the run when BENCH_JSON names an output file; each experiment rewrites
// the file so a partial run still leaves a valid snapshot. Example:
//
//	BENCH_JSON=BENCH_figures.json go test -bench=. -benchtime 1x
var benchSink *bench.Sink

func init() {
	if os.Getenv("BENCH_JSON") != "" {
		benchSink = &bench.Sink{}
	}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	opts := bench.Options{Scale: gen.ScaleSmall, Quick: true, Out: io.Discard, Sink: benchSink}
	if testing.Verbose() {
		// go test -bench -v prints the regenerated tables.
		opts.Out = testWriter{b}
	}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			// Record each experiment's rows once, not once per b.N
			// iteration.
			opts.Sink = nil
		}
		if err := bench.Run(name, opts); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
	if benchSink != nil {
		if err := benchSink.WriteJSON(os.Getenv("BENCH_JSON")); err != nil {
			b.Fatalf("writing %s: %v", os.Getenv("BENCH_JSON"), err)
		}
	}
}

type testWriter struct{ b *testing.B }

func (w testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

func BenchmarkTable1Bandwidth(b *testing.B)      { runExperiment(b, "table1") }
func BenchmarkTable2Latency(b *testing.B)        { runExperiment(b, "table2") }
func BenchmarkTable3Inputs(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkFigure4aNUMALocal(b *testing.B)    { runExperiment(b, "fig4a") }
func BenchmarkFigure4bPolicies(b *testing.B)     { runExperiment(b, "fig4b") }
func BenchmarkFigure5PageMigration(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFigure6KernelUser(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFigure7Algorithms(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFigure8Entropy(b *testing.B)       { runExperiment(b, "fig8") }
func BenchmarkFigure9Frameworks(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFigure10Scaling(b *testing.B)      { runExperiment(b, "fig10") }

func BenchmarkTable4OptaneVsCluster(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFigure11Configs(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkTable5OutOfCore(b *testing.B)       { runExperiment(b, "table5") }

// Ablation benches beyond the paper's figures (design choices DESIGN.md
// calls out): page-size and NUMA-policy sensitivity of a single kernel.

func BenchmarkAblationPageSize(b *testing.B) {
	g, err := GenerateInput("clueweb12", ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(OptanePMM, ScaleSmall)
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(g, "bfs", 96); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFrameworks(b *testing.B) {
	g, err := GenerateInput("kron30", ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(OptanePMM, ScaleSmall)
	for _, fw := range []string{"Galois", "GBBS"} {
		b.Run(fw, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.RunAs(fw, g, "bfs", 96); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
