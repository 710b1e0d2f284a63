package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The benchmark contract, field by field. A manifest outside any of these
// limits is refused before a single run, so the test is as strict.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds *int     `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

const manifestPath = "../BENCHMARK.json"

func loadManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("manifest is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields() // exactly these keys, at every level
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest lacks key %q", k)
		}
	}
	return m
}

func TestManifestMeetsContract(t *testing.T) {
	m := loadManifest(t)

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || slices.Contains(strings.Split(arg, "/"), "..") {
			t.Errorf("command argument %q is too long, absolute or leaves the repo", arg)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repo: %v", p, err)
		}
	}
	// Whatever the command names inside the repo lies under paths.
	for _, arg := range m.Command[1:] {
		if _, err := os.Stat(filepath.Join("..", arg)); err == nil && !underAny(arg, m.Paths) {
			t.Errorf("command names %q, which is outside paths %v", arg, m.Paths)
		}
	}
	if m.RunSeconds == nil || *m.RunSeconds < 1 || *m.RunSeconds > 60 {
		t.Errorf("run_seconds %v, want a whole number in 1..60", m.RunSeconds)
	} else if *m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, but the program's default window is %d", *m.RunSeconds, defaultSeconds)
	}

	names := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a legal name", kind, name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		unique("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var setup *manifestMetric
	for i, d := range m.EndToEnd {
		unique("end_to_end", d.Name)
		checkMetric(t, d)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	switch {
	case setup == nil:
		t.Error("no setup_s among the end-to-end metrics")
	case setup.Unit != "s" || setup.Better != "lower":
		t.Errorf("setup_s is %s/%s, want s/lower", setup.Unit, setup.Better)
	default:
		for _, d := range m.EndToEnd {
			if d.Bound != nil && *d.Bound > *setup.Bound {
				t.Errorf("%s has a larger bound than setup_s", d.Name)
			}
		}
	}
	for _, d := range m.PerLayer {
		unique("per_layer", d.Name)
		checkMetric(t, d)
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

func checkMetric(t *testing.T, d manifestMetric) {
	t.Helper()
	if !unitRE.MatchString(d.Unit) {
		t.Errorf("metric %s: unit %q is not a legal unit", d.Name, d.Unit)
	}
	if d.Better != "higher" && d.Better != "lower" {
		t.Errorf("metric %s: better is %q", d.Name, d.Better)
	}
}

func underAny(p string, dirs []string) bool {
	for _, d := range dirs {
		if p == d || strings.HasPrefix(p, d+"/") {
			return true
		}
	}
	return false
}

// TestManifestMatchesProgram holds the manifest and `bench -list` together,
// in both directions and in order.
func TestManifestMatchesProgram(t *testing.T) {
	m := loadManifest(t)
	var want []string
	for _, w := range m.Workloads {
		want = append(want, "workload "+w.Name)
	}
	for _, d := range m.EndToEnd {
		want = append(want, "end_to_end "+d.Name+" "+d.Unit+" "+d.Better+" "+fmt.Sprintf("%g", *d.Bound))
	}
	for _, d := range m.PerLayer {
		want = append(want, "per_layer "+d.Name+" "+d.Unit+" "+d.Better)
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("bench -list exited %d: %s", code, errOut.String())
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d: program emits %q, manifest says %q", i+1, g, w)
		}
	}
	for _, w := range m.Workloads {
		if spec, _ := findWorkload(w.Name); spec.why != w.Why {
			t.Errorf("workload %s: manifest and program give different reasons", w.Name)
		}
	}
}
