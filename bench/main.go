// Command bench is the repository's benchmark: four workloads over the
// public flodb API, checked for correctness while they run and after a
// close and reopen. See README.md.
//
//	bench -workload ingest -seed 1 -seconds 10 -trace 0   one run, as the driver makes it
//	bench -seed 1                                         all four workloads in sequence
//	bench -seed 1 -trace 1                                the traced run: per-layer metrics
//	bench -seed 1 -runs 10 -json set.json                 ten seeds per workload, appended to set.json
//	bench -compare a.json b.json                          do two result sets agree
//	bench -list                                           every metric the program emits
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"flodb/internal/kv"
)

// defaultSeconds is the measured window the bounds in BENCHMARK.json were
// set with (its run_seconds).
const defaultSeconds = 10

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool
	runs     int
	jsonOut  string
	commit   string
	outDir   string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four, in sequence)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the operation generators")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1: the traced run, which reports per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&o.smoke, "smoke", false, "key spaces shrunk 100x and a 1 s window: a functional check, not a measurement")
	fs.IntVar(&o.runs, "runs", 1, "repeat with seeds seed, seed+1, ...")
	fs.StringVar(&o.jsonOut, "json", "", "also append every run's result to this file")
	fs.StringVar(&o.commit, "commit", "unknown", "commit being measured, recorded in the output (the driver's checkout has no git)")
	fs.StringVar(&o.outDir, "out", "out", "directory for store files and trace-<workload>.jsonl")
	list := fs.Bool("list", false, "print the workloads and metrics the program emits, then exit")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *trace != 0 && *trace != 1, *seconds <= 0, o.runs < 1, fs.NArg() > 0:
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -seconds and -runs are positive, and there are no other arguments")
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if o.smoke && !secondsSet {
		*seconds = 1
	}
	o.window, o.trace = time.Duration(*seconds*float64(time.Second)), *trace == 1
	return runBenchmark(o, nil, stdout, stderr)
}

// runBenchmark runs the chosen workloads and prints their results. It
// returns 1 when a run could not finish or a correctness check failed.
// wrap is nil outside tests (see runConfig.wrap).
func runBenchmark(o options, wrap func(kv.Store) kv.Store, stdout, stderr io.Writer) int {
	specs := workloads
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	// A result file grows run by run, so a set can be gathered one
	// process per run, the way the driver runs the benchmark.
	set := &resultSet{}
	if o.jsonOut != "" {
		if prior, err := readResultSet(o.jsonOut); err == nil {
			set = prior
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	set.Env = environment(o.commit)
	fmt.Fprintf(stdout, "# %s; %d clients; flush policy: %s\n", set.Env, clients, flushPolicy)
	var last *result
	ran := 0

	correct := true
	for n := 0; n < o.runs; n++ {
		for _, spec := range specs {
			cfg := fullConfig(o.seed+int64(n), o.window, o.trace, o.outDir)
			if o.smoke {
				spec, cfg = spec.smoke(), smokeConfig(cfg.seed, o.window, o.trace, o.outDir)
			}
			cfg.wrap = wrap
			res, err := execute(spec, cfg)
			if err == nil {
				err = complete(res, defsFor(cfg.trace), !cfg.trace)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			printResult(stdout, res)
			for _, why := range res.Reasons {
				fmt.Fprintf(stderr, "bench: %s: incorrect: %s\n", spec.name, why)
			}
			correct = correct && res.Correct
			set.Runs = append(set.Runs, res)
			last = res
			ran++
		}
	}
	if o.jsonOut != "" {
		if err := set.write(o.jsonOut); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// The driver reads the last line of a single-workload run.
	if ran == 1 {
		fmt.Fprintln(stdout, driverLine(last))
	}
	if !correct {
		return 1
	}
	return 0
}

func environment(commit string) string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, commit %s", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit)
}

func printList(w io.Writer) {
	for _, s := range workloads {
		fmt.Fprintf(w, "workload %s\n", s.name)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\n", d.Name, d.Unit, d.Better)
	}
}

// printResult prints every metric by name, with its unit and the number of
// observations behind it.
func printResult(w io.Writer, res *result) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%s seed %d: %s, %d results checked, %d failed (failed_ops_share %g)\n",
		res.Workload, res.Seed, verdict, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range defsFor(res.Trace) {
		line := fmt.Sprintf("  %-32s %14.4f %s", d.Name, res.Metrics[d.Name], d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	if k := res.Samples["sample_stride"]; k > 1 {
		fmt.Fprintf(w, "  latency samples kept: 1 in %d\n", k)
	}
}

// driverLine is the one JSON object the benchmark contract asks for.
func driverLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defsFor(res.Trace) {
		out.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings: cannot fail
	}
	return string(b)
}
