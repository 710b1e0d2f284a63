package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/kv"
)

const testWindow = 400 * time.Millisecond

func smokeRun(t *testing.T, name string, trace bool, wrap func(kv.Store) kv.Store) *result {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := smokeConfig(1, testWindow, trace, t.TempDir())
	cfg.wrap = wrap
	res, err := execute(spec.smoke(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := complete(res, defsFor(trace), !trace); err != nil {
		t.Fatal(err)
	}
	return res
}

// The verifier passes on the real store, on every workload, traced and
// not, and every metric comes out.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			res := smokeRun(t, spec.name, trace, nil)
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d results wrong: %v", spec.name, trace, res.Failed, res.Attempted, res.Reasons)
			}
		}
	}
}

// faultyStore is the store with one defect switched on.
type faultyStore struct {
	kv.Store
	dropPut  uint64 // drop one Put in this many, silently
	staleGet uint64 // answer one Get in this many with the key's previous value
	skipNext uint64 // skip a key on one iterator step in this many

	puts, gets, steps atomic.Uint64
	mu                sync.Mutex
	previous          map[string][]byte // key -> value before its last overwrite
	current           map[string][]byte
}

func (f *faultyStore) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	if f.dropPut > 0 && f.puts.Add(1)%f.dropPut == 0 {
		return nil // acknowledged, never written
	}
	if err := f.Store.Put(ctx, key, value, opts...); err != nil {
		return err
	}
	if f.staleGet > 0 {
		f.mu.Lock()
		if cur, ok := f.current[string(key)]; ok {
			f.previous[string(key)] = cur
		}
		f.current[string(key)] = bytes.Clone(value)
		f.mu.Unlock()
	}
	return nil
}

func (f *faultyStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if f.staleGet > 0 && f.gets.Add(1)%f.staleGet == 0 {
		f.mu.Lock()
		old, ok := f.previous[string(key)]
		f.mu.Unlock()
		if ok {
			return old, true, nil
		}
	}
	return f.Store.Get(ctx, key)
}

func (f *faultyStore) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	it, err := f.Store.NewIterator(ctx, low, high)
	if err != nil || f.skipNext == 0 {
		return it, err
	}
	return &skippingIter{Iterator: it, f: f}, nil
}

type skippingIter struct {
	kv.Iterator
	f *faultyStore
}

func (it *skippingIter) Next() bool {
	if it.f.steps.Add(1)%it.f.skipNext == 0 && !it.Iterator.Next() {
		return false
	}
	return it.Iterator.Next()
}

// The verifier is live: each injected defect makes failed_ops_share > 0
// and the command exit non-zero.
func TestVerifierCatchesInjectedFaults(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		fault    func() *faultyStore
		reason   string
	}{
		{"dropped put", "readheavy", func() *faultyStore { return &faultyStore{dropPut: 1000} }, "version"},
		{"stale read", "netmix", func() *faultyStore { return &faultyStore{staleGet: 50} }, "stale"},
		{"skipped scan key", "scanwrite", func() *faultyStore { return &faultyStore{skipNext: 997} }, "scan from"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrap := func(s kv.Store) kv.Store {
				f := tc.fault()
				f.Store, f.previous, f.current = s, map[string][]byte{}, map[string][]byte{}
				return f
			}
			res := smokeRun(t, tc.workload, false, wrap)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("verifier reported %d failures of %d: the fault went unseen", res.Failed, res.Attempted)
			}
			if !strings.Contains(strings.Join(res.Reasons, "\n"), tc.reason) {
				t.Errorf("no reason mentions %q: %v", tc.reason, res.Reasons)
			}

			var out, errOut bytes.Buffer
			o := options{workload: tc.workload, seed: 1, window: testWindow, smoke: true, runs: 1, outDir: t.TempDir()}
			if code := runBenchmark(o, wrap, &out, &errOut); code == 0 {
				t.Errorf("command exited 0 with the fault injected; stderr: %s", errOut.String())
			}
			if !strings.Contains(out.String(), `"correct":false`) {
				t.Errorf("result line does not say correct:false:\n%s", out.String())
			}
		})
	}
}

// Two clients reading and overwriting the same 64 keys as fast as they
// can: the ownership and read-version-before-Get rules must never report a
// mismatch the store did not cause. Run with -race.
func TestVerifierNoFalseMismatchUnderContention(t *testing.T) {
	spec := workloadSpec{name: "contended", keys: 64, preload: true, getPct: 50, spanEvery: 2}
	cfg := smokeConfig(7, 2*time.Second, false, t.TempDir())
	res, err := execute(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d false mismatches of %d: %v", res.Failed, res.Attempted, res.Reasons)
	}
	if res.Attempted < 10_000 {
		t.Errorf("only %d results checked: not a contention test", res.Attempted)
	}
}

func TestSmokeCommandRunsEveryWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	dir := t.TempDir()
	if code := realMain([]string{"-smoke", "-seconds", "0.3", "-seed", "3", "-out", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, spec := range workloads {
		if !strings.Contains(out.String(), spec.name+" seed 3: correct") {
			t.Errorf("no passing result for %s:\n%s", spec.name, out.String())
		}
	}
	for _, d := range endToEnd {
		if strings.Count(out.String(), "  "+d.Name+" ") != len(workloads) {
			t.Errorf("metric %s is not printed once per workload", d.Name)
		}
	}
}
