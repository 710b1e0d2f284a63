package figures

import (
	"fmt"

	"flodb/internal/core"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/workload"
)

// The paper fixes several design parameters empirically (§4.1, §5.1):
// the 1:4 Membuffer:Memtable split, the drain-thread count and the
// partition bits ℓ. These ablations sweep each one on a write-heavy
// workload over a memory component of ablateMem bytes, so the choices can
// be re-validated on new hardware.
const ablateMem = 4 << 20

// ablateFloDB runs a write-only burst against a FloDB of mem bytes in the
// cell directory name, whose persists discard the sealed Memtable,
// configured by mutate, drawing keys from keyGen (nil: uniform over
// c.Keys). It returns Mops/s and the share of updates that completed
// directly in the Membuffer, in percent.
func (c *Config) ablateFloDB(name string, threads int, mem int64, keyGen func(int) workload.KeyGen, mutate func(*core.Config)) (float64, float64, error) {
	dir, err := c.cellDir(name)
	if err != nil {
		return 0, 0, err
	}
	cfg := core.Config{
		Dir:         dir,
		DropPersist: true, // isolate the memory component (§5.5)
		MemoryBytes: mem,
		Durability:  kv.DurabilityNone, // loader shape, like the other throughput figures
	}
	mutate(&cfg)
	db, err := core.Open(cfg)
	if err != nil {
		return 0, 0, err
	}
	res, err := harness.Run(db, harness.RunOptions{
		Threads:  threads,
		Duration: c.Duration,
		Mix:      workload.WriteOnly,
		Keys:     c.Keys,
		KeyGen:   keyGen,
	})
	st := db.Stats()
	db.Close()
	if err != nil {
		return 0, 0, err
	}
	total := st.MembufferHits + st.MemtableWrites
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(st.MembufferHits) / float64(total)
	}
	return res.MopsPerSec(), pct, nil
}

// AblateSplit sweeps the Membuffer fraction of the memory budget. The
// paper chose 1/4 empirically (§5.1); the sweep shows the trade-off of
// §4.1: too small a Membuffer overflows into the Memtable, too large a
// one drains slowly.
func AblateSplit(c Config) (*harness.Table, error) {
	c.Defaults()
	fractions := []float64{0.05, 0.125, 0.25, 0.5, 0.75}
	if c.Quick {
		fractions = []float64{0.125, 0.25, 0.5}
	}
	cols := make([]string, len(fractions))
	for i, f := range fractions {
		cols[i] = fmt.Sprintf("%g", f)
	}
	tbl := harness.NewTable("Ablation: Membuffer fraction of the memory budget (paper: 0.25)",
		"membuffer fraction", "Mops/s", cols, []string{"write Mops/s", "direct-Membuffer %"})
	threads := 8
	if c.Quick {
		threads = 4
	}
	for i, f := range fractions {
		mops, pct, err := c.ablateFloDB(fmt.Sprintf("ablate-split-%d", i), threads, ablateMem, nil, func(cfg *core.Config) { cfg.MembufferFraction = f })
		if err != nil {
			return nil, fmt.Errorf("ablate-split f=%g: %w", f, err)
		}
		tbl.Set(0, i, mops)
		tbl.Set(1, i, pct)
		c.logf("ablate-split f=%g -> %.3f Mops/s (%.0f%% direct)", f, mops, pct)
	}
	return tbl, nil
}

// AblateDrainThreads sweeps the background drain parallelism (§4.2 allows
// "one or more dedicated background threads").
func AblateDrainThreads(c Config) (*harness.Table, error) {
	c.Defaults()
	counts := []int{1, 2, 4, 8}
	if c.Quick {
		counts = []int{1, 4}
	}
	cols := make([]string, len(counts))
	for i, n := range counts {
		cols[i] = fmt.Sprintf("%d", n)
	}
	tbl := harness.NewTable("Ablation: draining threads (default 2)",
		"drain threads", "Mops/s", cols, []string{"write Mops/s", "direct-Membuffer %"})
	threads := 8
	if c.Quick {
		threads = 4
	}
	for i, n := range counts {
		mops, pct, err := c.ablateFloDB(fmt.Sprintf("ablate-drain-%d", i), threads, ablateMem, nil, func(cfg *core.Config) { cfg.DrainThreads = n })
		if err != nil {
			return nil, fmt.Errorf("ablate-drain n=%d: %w", n, err)
		}
		tbl.Set(0, i, mops)
		tbl.Set(1, i, pct)
		c.logf("ablate-drain n=%d -> %.3f Mops/s (%.0f%% direct)", n, mops, pct)
	}
	return tbl, nil
}

// AblatePartitionBits sweeps ℓ, the Membuffer partition selector (§4.3):
// more partitions mean tighter multi-insert neighborhoods but greater
// skew sensitivity.
func AblatePartitionBits(c Config) (*harness.Table, error) {
	c.Defaults()
	bits := []uint{0, 2, 4, 6, 8, 10}
	if c.Quick {
		bits = []uint{0, 6}
	}
	cols := make([]string, len(bits))
	for i, b := range bits {
		cols[i] = fmt.Sprintf("%d", b)
	}
	tbl := harness.NewTable("Ablation: Membuffer partition bits ℓ (default 6)",
		"partition bits", "Mops/s", cols, []string{"uniform Mops/s", "skewed Mops/s"})
	threads := 8
	if c.Quick {
		threads = 4
	}
	for i, b := range bits {
		setBits := func(cfg *core.Config) { cfg.PartitionBits = b }
		uni, _, err := c.ablateFloDB(fmt.Sprintf("ablate-lbits-%d-uniform", i), threads, ablateMem, nil, setBits)
		if err != nil {
			return nil, fmt.Errorf("ablate-lbits l=%d uniform: %w", b, err)
		}
		// Skewed: hot-set keygen stresses one partition (§4.3's
		// "vulnerable to data skew").
		hot := func(int) workload.KeyGen { return workload.NewHotSet(c.Keys, 0.02, 98) }
		skewed, _, err := c.ablateFloDB(fmt.Sprintf("ablate-lbits-%d-skewed", i), threads, ablateMem, hot, setBits)
		if err != nil {
			return nil, fmt.Errorf("ablate-lbits l=%d skewed: %w", b, err)
		}
		tbl.Set(0, i, uni)
		tbl.Set(1, i, skewed)
		c.logf("ablate-bits l=%d -> uniform %.3f, skewed %.3f Mops/s", b, uni, skewed)
	}
	return tbl, nil
}
