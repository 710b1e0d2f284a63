package figures

import (
	"fmt"
	"time"

	"flodb/internal/core"
	"flodb/internal/harness"
	"flodb/internal/workload"
)

// FigAdaptive is the §4.4 adaptation ablation: adaptive FloDB against
// fixed Membuffer fractions across a PHASE-SHIFTING workload run
// back-to-back on each store (harness.RunPhased) —
//
//	write-burst — pure inserts under mild spread-Zipfian skew (the
//	              hashed-hot-key shape): the hot working set is resident
//	              in a LARGE Membuffer and absorbed as in-place updates
//	              with no drain debt — §4.4's update-heavy case
//	scan-heavy  — 50% range scans over uniform keys; wants the SMALLEST
//	              Membuffer (every range read drains the Membuffer
//	              before its sequence point, so a big one taxes exactly
//	              the scans)
//	mixed       — the balanced read/write blend with an occasional
//	              (4%) range scan, uniform keys — the steady-state
//	              OLTP-plus-reporting shape
//
// Like the Fig 17 ablations, the store runs memory-component-only
// (DropPersist) at the ablation budget, so the cells measure the
// Membuffer↔Memtable split itself rather than disk-flush scheduling.
// The fixed rows are the controller's own bounds (0.05, 0.60) plus the
// paper's 0.25, so the table reads as a regret bound: a working
// controller lands near the best fixed fraction in EVERY phase, while
// at least one fixed fraction pays badly somewhere (0.60 in the
// scan-heavy phase is the canonical loss). Nothing is reset between
// phases, so the adaptive row also pays its re-convergence cost at each
// boundary — the honest number.
func FigAdaptive(c Config) (*harness.Table, error) {
	c.Defaults()
	threads := c.Threads[len(c.Threads)/2]
	// The ablation budget of ablate.go: big enough that the split is the
	// variable, small enough that drains and seals stay hot.
	const memBytes = 4 << 20
	// The controller needs several sensor windows per phase to converge:
	// scale the window to the phase duration, floored at 5ms.
	window := c.Duration / 25
	if window < 5*time.Millisecond {
		window = 5 * time.Millisecond
	}

	type variant struct {
		name     string
		adaptive bool
		frac     float64
	}
	variants := []variant{
		{"FloDB adaptive", true, 0.25},
		{"FloDB fixed 0.05", false, 0.05},
		{"FloDB fixed 0.25", false, 0.25},
		{"FloDB fixed 0.60", false, 0.60},
	}
	phaseNames := []string{"write-burst", "scan-heavy", "mixed"}
	phaseMixes := []workload.Mix{workload.WriteBurst, workload.ScanHeavy, workload.MixedOps}
	// Write bursts are skewed (hot keys, hashed — the spread-Zipfian
	// shape); the scan and mixed phases draw uniformly.
	keyCount := c.Keys
	burstGen := func(int) workload.KeyGen {
		return workload.NewZipfian(keyCount, 1.01)
	}
	phaseGens := []func(int) workload.KeyGen{burstGen, nil, nil}

	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.name
	}
	tbl := harness.NewTable("Adaptive memory sizing: phase-shifting workload (§4.4)",
		fmt.Sprintf("phase (%d threads, run back-to-back per store)", threads),
		"Mops/s", phaseNames, rows)

	for vi, v := range variants {
		cfg := core.Config{
			DropPersist:       true,
			MemoryBytes:       memBytes,
			MembufferFraction: v.frac,
			AdaptiveMemory:    v.adaptive,
			AdaptiveWindow:    window,
		}
		db, err := core.Open(cfg)
		if err != nil {
			return nil, err
		}
		var trace string
		phases := make([]harness.Phase, len(phaseNames))
		for i, name := range phaseNames {
			phases[i] = harness.Phase{Name: name, Opts: harness.RunOptions{
				Mix:      phaseMixes[i],
				KeyGen:   phaseGens[i],
				Threads:  threads,
				Duration: c.Duration,
				Keys:     c.Keys,
			}}
			if v.adaptive {
				name := name
				phases[i].OnDone = func(harness.Result) {
					trace += fmt.Sprintf(" %s=%.2f", name, db.Stats().MembufferFraction)
				}
			}
		}
		for pi, res := range harness.RunPhased(db, phases) {
			tbl.Set(vi, pi, res.MopsPerSec())
			c.logf("adaptive %s %s -> %.3f Mops/s", v.name, phaseNames[pi], res.MopsPerSec())
		}
		if v.adaptive {
			tbl.AddNote("adaptive fraction after each phase:%s (%d resizes, window %v)",
				trace, db.Stats().MembufferResizes, window)
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	tbl.AddNote("memory-component-only (DropPersist) at %s, the Fig 17 ablation shape", harness.ByteSize(memBytes))
	tbl.AddNote("phases run consecutively on one store; the adaptive row re-converges at each phase boundary")
	return tbl, nil
}
