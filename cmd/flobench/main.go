// Command flobench regenerates the tables behind every figure in the
// FloDB paper's evaluation (EuroSys 2017, §5).
//
// Usage:
//
//	flobench [flags] <figure> [<figure> ...]
//	flobench -quick all
//
// Figures: fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
// fig15 fig16 fig17, the contract/scaling extras (apibench,
// shardbench, ablate-*), or "all". An unknown figure name is
// an error (exit 2) listing the valid names.
//
// Sizes default to 1/1024 of the paper's (the column labels report the
// paper-scale sizes); see DESIGN.md §3 and EXPERIMENTS.md for the scaling
// rationale and expected shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flodb/internal/figures"
	"flodb/internal/harness"
)

var figureFuncs = map[string]func(figures.Config) (*harness.Table, error){
	"fig3":  figures.Fig3,
	"fig4":  figures.Fig4,
	"fig5":  figures.Fig5,
	"fig7":  figures.Fig7,
	"fig8":  figures.Fig8,
	"fig9":  figures.Fig9,
	"fig10": figures.Fig10,
	"fig11": figures.Fig11,
	"fig12": figures.Fig12,
	"fig13": figures.Fig13,
	"fig14": figures.Fig14,
	"fig15": figures.Fig15,
	"fig16": figures.Fig16,
	"fig17": figures.Fig17,
	// Contract surface beyond the paper: atomic batches + streaming
	// iterators across the six systems.
	"apibench": figures.APIBench,
	// Shard scaling: write throughput vs shard count under uniform,
	// zipfian, and hot-shard key distributions.
	"shardbench": figures.ShardBench,
	// Service tier: throughput and latency through flodbd's wire
	// protocol vs client connection-pool size.
	"netbench": figures.NetBench,
	// Distribution tier: quorum throughput/latency vs ring node count,
	// plus the kill-one-replica availability series.
	"clusterbench": figures.ClusterBench,
	// Telemetry overhead: the instrumented hot path (op histograms +
	// event log) vs WithTelemetry(false), same engine and workloads.
	"obsbench": figures.ObsBench,
	// Ablations beyond the paper (DESIGN.md §4.5).
	"ablate-split": figures.AblateSplit,
	"ablate-drain": figures.AblateDrainThreads,
	"ablate-batch": figures.AblateDrainBatch,
	"ablate-lbits": figures.AblatePartitionBits,
}

func main() {
	var (
		duration = flag.Duration("duration", time.Second, "measured duration per cell")
		keys     = flag.Uint64("keys", 0, "dataset keyspace size (0 = scaled default)")
		mem      = flag.Int64("mem", 0, "memory component bytes (0 = scaled default, 128KB)")
		quick    = flag.Bool("quick", false, "trim sweeps for a fast smoke run")
		scratch  = flag.String("scratch", "", "scratch directory (default under TMPDIR)")
		diskBps  = flag.Float64("disk-bytes-per-sec", 0, "rate-limit persists to model a slower disk (0 = unlimited)")
		csvPath  = flag.String("csv", "", "also append CSV output to this file")
		verbose  = flag.Bool("v", false, "log per-cell progress")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flobench [flags] <figure>...\nfigures: %s all\n", strings.Join(figureNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var names []string
	for _, arg := range flag.Args() {
		if arg == "all" {
			names = figureNames()
			break
		}
		if _, ok := figureFuncs[arg]; !ok {
			// Exit non-zero AND name the valid figures: a CI bench step
			// must fail loudly on a typo, never green-pass having run
			// nothing.
			fmt.Fprintf(os.Stderr, "flobench: unknown figure %q\nvalid figures: %s all\n",
				arg, strings.Join(figureNames(), " "))
			os.Exit(2)
		}
		names = append(names, arg)
	}

	cfg := figures.Config{
		ScratchDir:      *scratch,
		Duration:        *duration,
		Keys:            *keys,
		MemBytes:        *mem,
		DiskBytesPerSec: *diskBps,
		Quick:           *quick,
	}
	if *verbose {
		cfg.Out = os.Stderr
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flobench: %v\n", err)
			os.Exit(1)
		}
		csv = f
		defer f.Close()
	}

	start := time.Now()
	for _, name := range names {
		fn := figureFuncs[name]
		t0 := time.Now()
		tbl, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flobench: %s: %v\n", name, err)
			os.Exit(1)
		}
		tbl.AddNote("cell duration %v, completed in %v", *duration, time.Since(t0).Round(time.Millisecond))
		tbl.Render(os.Stdout)
		if csv != nil {
			tbl.RenderCSV(csv)
		}
	}
	fmt.Printf("\nflobench: %d figure(s) in %v\n", len(names), time.Since(start).Round(time.Second))
}

func figureNames() []string {
	names := make([]string, 0, len(figureFuncs))
	for n := range figureFuncs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// figN sorts numerically, the named figures after them.
		pi, pj := names[i], names[j]
		if strings.HasPrefix(pi, "fig") && strings.HasPrefix(pj, "fig") {
			var a, b int
			fmt.Sscanf(pi, "fig%d", &a)
			fmt.Sscanf(pj, "fig%d", &b)
			return a < b
		}
		return pi < pj
	})
	return names
}
