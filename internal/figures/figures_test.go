package figures

import (
	"testing"
	"time"

	"flodb/internal/harness"
)

// tiny returns the smallest config that still exercises every code path.
func tiny(t *testing.T) Config {
	t.Helper()
	return Config{
		ScratchDir: t.TempDir(),
		Duration:   50 * time.Millisecond,
		Keys:       1 << 12,
		MemBytes:   64 << 10,
		Threads:    []int{1, 2},
		Quick:      true,
	}
}

// TestEveryFigureRuns smoke-tests every figure end to end: each must
// produce a fully-populated table without errors. This is the integration
// test tying stores, workloads, harness and reporting together.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	figs := map[string]func(Config) (*harness.Table, error){
		"fig5":       Fig5,
		"fig7":       Fig7,
		"fig8":       Fig8,
		"fig9":       Fig9,
		"fig11":      Fig11,
		"fig12":      Fig12,
		"fig14":      Fig14,
		"fig17":      Fig17,
		"shardbench": ShardBench,
		// clusterbench is the slowest figure (three ring sizes, kill and
		// heal segments) but it is the only tier-1 coverage of the full
		// quorum plane under load, so it stays in the smoke set.
		"clusterbench": ClusterBench,
	}
	for name, fn := range figs {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			tbl, err := fn(tiny(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 || len(tbl.Cols) == 0 {
				t.Fatal("empty table")
			}
			nonZero := 0
			for i := range tbl.Rows {
				for j := range tbl.Cols {
					if tbl.Cells[i][j] > 0 {
						nonZero++
					}
				}
			}
			if nonZero == 0 {
				t.Fatalf("%s produced an all-zero table", name)
			}
		})
	}
}

// TestLatencyFigures exercises Figs 3/4 (slow because of per-op timing).
func TestLatencyFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	for name, fn := range map[string]func(Config) (*harness.Table, error){"fig3": Fig3, "fig4": Fig4} {
		t.Run(name, func(t *testing.T) {
			tbl, err := fn(tiny(t))
			if err != nil {
				t.Fatal(err)
			}
			// First column is the normalization base: exactly 1.0.
			if tbl.Cells[0][0] != 1 || tbl.Cells[1][0] != 1 {
				t.Fatalf("normalization base wrong: %v %v", tbl.Cells[0][0], tbl.Cells[1][0])
			}
		})
	}
}

// TestMemorySweepFigures exercises Figs 10/15/16 at minimum size.
func TestMemorySweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	cfg := tiny(t)
	for name, fn := range map[string]func(Config) (*harness.Table, error){
		"fig10": Fig10, "fig13": Fig13, "fig15": Fig15, "fig16": Fig16,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := fn(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpenSystemUnknown(t *testing.T) {
	if _, err := openSystem(System("nope"), t.TempDir(), 1<<20, nil); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestDefaultsQuick(t *testing.T) {
	c := Config{Quick: true}
	c.Defaults()
	if c.Keys > 1<<18 {
		t.Fatal("quick mode should trim the keyspace")
	}
	if len(c.Threads) == 0 || c.Duration == 0 || c.MemBytes == 0 {
		t.Fatal("defaults incomplete")
	}
}
