package figures

import (
	"flodb/internal/core"
	"flodb/internal/harness"
	"flodb/internal/workload"
)

// Fig17 — the Membuffer ablation (§5.5): write-only throughput of two
// FloDB variants with persistence disabled (immutable memtables dropped),
// across memory sizes:
//
//	"No HT"               — membuffer disabled (classic single-level LSM
//	                        memory component, the whole budget in the
//	                        Memtable): degrades as memory grows.
//	"HT, multi-insert SL" — two levels, batched multi-insert drains: best.
//
// The paper's third row, per-entry drain inserts, is not run: the drain
// only multi-inserts.
//
// The paper's column clusters are {1GB,1t} then {1,2,4,8GB}×8t (scaled
// /1024 here); the boxed annotation — the proportion of updates completing
// directly in the Membuffer — is reported as a note per cell.
func Fig17(c Config) (*harness.Table, error) {
	c.Defaults()
	type cluster struct {
		label   string
		mem     int64
		threads int
	}
	clusters := []cluster{
		{"1GB,1t", 1 << 20, 1},
		{"1GB,8t", 1 << 20, 8},
		{"2GB,8t", 2 << 20, 8},
		{"4GB,8t", 4 << 20, 8},
		{"8GB,8t", 8 << 20, 8},
	}
	if c.Quick {
		clusters = []cluster{{"1GB,1t", 1 << 20, 1}, {"1GB,8t", 1 << 20, 4}, {"8GB,8t", 8 << 20, 4}}
	}
	variants := []struct {
		label  string
		mutate func(*core.Config)
	}{
		{"HT, multi-insert SL", func(cfg *core.Config) {}},
		{"No HT", func(cfg *core.Config) { cfg.DisableMembuffer = true }},
	}
	cols := make([]string, len(clusters))
	for i, cl := range clusters {
		cols[i] = cl.label
	}
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.label
	}
	tbl := harness.NewTable("Fig 17: Membuffer and multi-insert draining (persistence disabled)",
		"memory size (paper scale), threads", "Mops/s", cols, rows)

	for vi, v := range variants {
		for ci, cl := range clusters {
			cfg := core.Config{
				DropPersist: true, // §5.5: "we disable the disk persisting"
				MemoryBytes: cl.mem,
			}
			v.mutate(&cfg)
			db, err := core.Open(cfg)
			if err != nil {
				return nil, err
			}
			res := harness.Run(db, harness.RunOptions{
				Threads:  cl.threads,
				Duration: c.Duration,
				Mix:      workload.WriteOnly,
				Keys:     c.Keys,
			})
			st := db.Stats()
			db.Close()
			tbl.Set(vi, ci, res.MopsPerSec())
			total := st.MembufferHits + st.MemtableWrites
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(st.MembufferHits) / float64(total)
			}
			if vi == 0 { // annotate direct-Membuffer share on the full variant
				tbl.AddNote("%s: %.0f%% of updates completed directly in the Membuffer", cl.label, pct)
			}
			c.logf("fig17 %s %s -> %.3f Mops/s (direct-HT %.0f%%)", v.label, cl.label, res.MopsPerSec(), pct)
		}
	}
	return tbl, nil
}
