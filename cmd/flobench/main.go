// Command flobench regenerates the tables behind the FloDB paper's
// evaluation figures (EuroSys 2017, §5) that no bench/ workload answers.
//
// Usage:
//
//	flobench [flags] <figure> [<figure> ...]
//	flobench -quick all
//
// Figures: fig9 … fig17, the contract/scaling extras (apibench, netbench,
// ablate-*), or "all" — the names in figures.ByName. An unknown figure
// name is an error (exit 2) listing the valid names. The rows of Figs
// 9–16 are the paper's five systems; apibench also runs FloDB/net, the
// FloDB engine behind a loopback flodbd server, and netbench sweeps it.
//
// Sizes default to 1/1024 of the paper's (the column labels report the
// paper-scale sizes): scaling every size by one factor keeps the ratios
// that drive the results (memory:dataset, Membuffer:Memtable, hot set:
// memory) while a cell runs in seconds. The internal/figures package doc
// gives the mapping, and each figure's doc comment the shape the paper
// reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flodb/internal/figures"
)

func main() {
	var (
		duration = flag.Duration("duration", time.Second, "measured duration per cell")
		keys     = flag.Uint64("keys", 0, "dataset keyspace size (0 = scaled default)")
		mem      = flag.Int64("mem", 0, "memory component bytes (0 = scaled default, 128KB)")
		quick    = flag.Bool("quick", false, "trim sweeps for a fast smoke run")
		scratch  = flag.String("scratch", "", "scratch directory (default under TMPDIR)")
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
		if _, ok := figures.ByName[arg]; !ok {
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
		ScratchDir: *scratch,
		Duration:   *duration,
		Keys:       *keys,
		MemBytes:   *mem,
		Quick:      *quick,
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
		fn := figures.ByName[name]
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
	names := make([]string, 0, len(figures.ByName))
	for n := range figures.ByName {
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
