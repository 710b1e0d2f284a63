package figures

import (
	"context"
	"errors"
	"testing"
	"time"

	"flodb/internal/kv"
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

// memorySweepFigures are the ByName entries TestMemorySweepFigures runs;
// TestEveryFigureRuns runs the rest.
var memorySweepFigures = map[string]bool{"fig10": true, "fig13": true, "fig15": true, "fig16": true}

// TestEveryFigureRuns smoke-tests every figure flobench accepts, less the
// memory sweeps, end to end: each must produce a fully-populated table
// without errors. This is the integration test tying stores, workloads,
// harness and reporting together.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	for name, fn := range ByName {
		if memorySweepFigures[name] {
			continue
		}
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

// TestMemorySweepFigures exercises Figs 10/13/15/16 at minimum size.
func TestMemorySweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	cfg := tiny(t)
	for name := range memorySweepFigures {
		fn := ByName[name]
		if fn == nil {
			t.Fatalf("%s is not a figure", name)
		}
		t.Run(name, func(t *testing.T) {
			if _, err := fn(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// refusePuts is a store whose every Put fails.
type refusePuts struct{ kv.Store }

var errPutRefused = errors.New("put refused")

func (refusePuts) Put(context.Context, []byte, []byte, ...kv.WriteOption) error {
	return errPutRefused
}

// TestFigureRefusesFailedOps: over a store whose Puts all fail, Fig 9's
// write-only mix still completes its deletes. A driver that published
// their throughput would read as a slower cell; it must fail instead.
func TestFigureRefusesFailedOps(t *testing.T) {
	wrapStoreForTest = func(s kv.Store) kv.Store { return refusePuts{s} }
	defer func() { wrapStoreForTest = nil }()
	if _, err := Fig9(tiny(t)); !errors.Is(err, errPutRefused) {
		t.Fatalf("Fig9 over a store refusing every Put = %v, want the Put's error", err)
	}
}

func TestOpenSystemUnknown(t *testing.T) {
	if _, err := openSystem(System("nope"), t.TempDir(), 1<<20); err == nil {
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
