package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// resultSet is a file of runs from one commit: several seeds of every
// workload.
type resultSet struct {
	Env  string    `json:"env"`
	Runs []*result `json:"runs"`
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values gathers one end-to-end metric of one workload across a set's runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if x, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			v = append(v, x)
		}
	}
	return v
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// compareFiles judges two result sets of one commit the way the driver
// judges the benchmark: every end-to-end metric's spread within each set
// must stay inside its bound (setup_s excepted), or the metric is
// unresolved; and b's median may not be worse than a's by more than the
// bound. It returns 0 only when every (workload, metric) pair passes.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResultSet(pathA)
	b, errB := readResultSet(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareSets(a, b, stdout)
}

func compareSets(a, b *resultSet, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-10s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	for _, spec := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(spec.name, d.Name), b.values(spec.name, d.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-10s %-12s needs two runs or more in each set\n", spec.name, d.Name)
				bad++
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case d.Name != "setup_s" && max(sa, sb) > d.Bound:
				verdict = "unresolved"
				bad++
			case worse > d.Bound:
				verdict = "DIFFERENT"
				bad++
			}
			fmt.Fprintf(w, "%-10s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				spec.name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
