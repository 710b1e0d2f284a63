// Benchmarks regenerating the paper's figures through the testing.B
// interface: `go test -bench=Fig -benchmem` runs a trimmed version of
// every figure; `cmd/flobench` runs the full sweeps with table output.
//
// Each benchmark reports the figure's headline metric via b.ReportMetric,
// so `go test -bench` output doubles as a compact reproduction record.
package flodb_test

import (
	"testing"
	"time"

	"flodb/internal/figures"
	"flodb/internal/harness"
)

// benchConfig trims the sweeps so the full suite stays in CI-sized time.
func benchConfig(b *testing.B) figures.Config {
	b.Helper()
	return figures.Config{
		ScratchDir: b.TempDir(),
		Duration:   300 * time.Millisecond,
		Quick:      true,
	}
}

// runFigure executes fn once per b.N (figures are macro-benchmarks; the
// interesting output is the reported metric, not ns/op).
func runFigure(b *testing.B, fn func(figures.Config) (*harness.Table, error), metricRow, metricCol int, metricName string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
		if metricRow < len(tbl.Rows) && metricCol < len(tbl.Cols) {
			b.ReportMetric(tbl.Cells[metricRow][metricCol], metricName)
		}
	}
}

func BenchmarkFig03SkiplistLatencyVsMemory(b *testing.B) {
	runFigure(b, figures.Fig3, 1, 2, "norm-write-lat-largest")
}

func BenchmarkFig04HashLatencyVsMemory(b *testing.B) {
	runFigure(b, figures.Fig4, 1, 2, "norm-write-lat-largest")
}

func BenchmarkFig05HashTableThroughput(b *testing.B) {
	runFigure(b, figures.Fig5, 0, 0, "Mops-32K-1t")
}

func BenchmarkFig07SkiplistThroughput(b *testing.B) {
	runFigure(b, figures.Fig7, 0, 0, "Mops-32K-1t")
}

func BenchmarkFig08MultiInsert(b *testing.B) {
	runFigure(b, figures.Fig8, 1, 0, "multi-Mops-nbhd10")
}

func BenchmarkFig09WriteOnly(b *testing.B) {
	runFigure(b, figures.Fig9, 0, 0, "flodb-Mops-1t")
}

func BenchmarkFig10ReadOnly(b *testing.B) {
	runFigure(b, figures.Fig10, 0, 0, "flodb-Mops-1t")
}

func BenchmarkFig11Mixed(b *testing.B) {
	runFigure(b, figures.Fig11, 0, 0, "flodb-Mops-1t")
}

func BenchmarkFig12OneWriter(b *testing.B) {
	runFigure(b, figures.Fig12, 0, 0, "flodb-Mops-1t")
}

func BenchmarkFig13ScanWrite(b *testing.B) {
	runFigure(b, figures.Fig13, 0, 0, "flodb-Mkeys-1t")
}

func BenchmarkFig14ScanRatio(b *testing.B) {
	runFigure(b, figures.Fig14, 2, 0, "Mkeys-2pct")
}

func BenchmarkFig15MemorySweepWrites(b *testing.B) {
	runFigure(b, figures.Fig15, 0, 0, "flodb-Mops-smallest")
}

func BenchmarkFig16SkewedMemorySweep(b *testing.B) {
	runFigure(b, figures.Fig16, 0, 0, "flodb-Mops-smallest")
}

func BenchmarkFig17Ablation(b *testing.B) {
	runFigure(b, figures.Fig17, 0, 0, "multiinsert-Mops-1GB1t")
}

func BenchmarkAPIBatchIter(b *testing.B) {
	runFigure(b, figures.APIBench, 0, 0, "flodb-batch-Mops")
}
