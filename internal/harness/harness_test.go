package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/workload"
)

// mapStore is a trivial in-memory kv.Store for driver tests.
type mapStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Put(_ context.Context, k, v []byte, _ ...kv.WriteOption) error {
	s.mu.Lock()
	s.m[string(k)] = append([]byte(nil), v...)
	s.mu.Unlock()
	return nil
}
func (s *mapStore) Delete(_ context.Context, k []byte, _ ...kv.WriteOption) error {
	s.mu.Lock()
	delete(s.m, string(k))
	s.mu.Unlock()
	return nil
}
func (s *mapStore) Sync(context.Context) error { return nil }
func (s *mapStore) Get(_ context.Context, k []byte) ([]byte, bool, error) {
	s.mu.RLock()
	v, ok := s.m[string(k)]
	s.mu.RUnlock()
	return v, ok, nil
}
func (s *mapStore) Scan(_ context.Context, low, high []byte) ([]kv.Pair, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scanLocked(low, high), nil
}
func (s *mapStore) scanLocked(low, high []byte) []kv.Pair {
	var out []kv.Pair
	for k, v := range s.m {
		if low != nil && k < string(low) {
			continue
		}
		if high != nil && k >= string(high) {
			continue
		}
		out = append(out, kv.Pair{Key: []byte(k), Value: v})
	}
	return out
}
func (s *mapStore) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	pairs, err := s.Scan(ctx, low, high)
	if err != nil {
		return nil, err
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].Key, pairs[j].Key) < 0 })
	return &mapIter{pairs: pairs, i: -1}, nil
}

func (s *mapStore) Apply(_ context.Context, b *kv.Batch, _ ...kv.WriteOption) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range b.Ops() {
		if op.Kind == keys.KindDelete {
			delete(s.m, string(op.Key))
		} else {
			s.m[string(op.Key)] = append([]byte(nil), op.Value...)
		}
	}
	return nil
}

// Snapshot returns a materialized copy view — trivially repeatable-read.
func (s *mapStore) Snapshot(context.Context) (kv.View, error) {
	s.mu.RLock()
	snap := newMapStore()
	for k, v := range s.m {
		snap.m[k] = v
	}
	s.mu.RUnlock()
	return snap, nil
}

func (s *mapStore) Checkpoint(context.Context, string) error { return kv.ErrNotSupported }

func (s *mapStore) Close() error { return nil }

var _ kv.Store = (*mapStore)(nil)

// mapIter is a trivial materialized kv.Iterator over a mapStore snapshot.
type mapIter struct {
	pairs []kv.Pair
	i     int
}

func (it *mapIter) First() bool { it.i = 0; return it.i < len(it.pairs) }
func (it *mapIter) Seek(key []byte) bool {
	it.i = sort.Search(len(it.pairs), func(i int) bool {
		return bytes.Compare(it.pairs[i].Key, key) >= 0
	})
	return it.i < len(it.pairs)
}
func (it *mapIter) Next() bool {
	if it.i < 0 {
		return it.First()
	}
	it.i++
	return it.i < len(it.pairs)
}
func (it *mapIter) Key() []byte {
	if it.i < 0 || it.i >= len(it.pairs) {
		return nil
	}
	return it.pairs[it.i].Key
}
func (it *mapIter) Value() []byte {
	if it.i < 0 || it.i >= len(it.pairs) {
		return nil
	}
	return it.pairs[it.i].Value
}
func (it *mapIter) Err() error   { return nil }
func (it *mapIter) Close() error { return nil }

func TestRunCountsOps(t *testing.T) {
	s := newMapStore()
	res, err := Run(s, RunOptions{
		Threads:  4,
		Duration: 100 * time.Millisecond,
		Mix:      workload.Balanced,
		Keys:     1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops executed")
	}
	if res.Reads+res.Writes+res.Scans != res.Ops {
		t.Fatalf("op accounting: %+v", res)
	}
	if res.MopsPerSec() <= 0 {
		t.Fatal("throughput not positive")
	}
}

// failingPuts is a mapStore whose Puts fail once the first n succeed.
type failingPuts struct {
	*mapStore
	puts atomic.Int64
	n    int64
}

var errPutRefused = errors.New("put refused")

func (s *failingPuts) Put(ctx context.Context, k, v []byte, opts ...kv.WriteOption) error {
	if s.puts.Add(1) > s.n {
		return errPutRefused
	}
	return s.mapStore.Put(ctx, k, v, opts...)
}

// TestRunRefusesFailedOps: a failed operation counts in no field of the
// Result, so a cell that publishes the survivors' throughput would read as
// a slower cell. Run refuses it instead, naming the count and the first
// failure.
func TestRunRefusesFailedOps(t *testing.T) {
	s := &failingPuts{mapStore: newMapStore(), n: 10}
	_, err := Run(s, RunOptions{
		Threads:  2,
		Duration: 50 * time.Millisecond,
		Mix:      workload.WriteOnly,
		Keys:     1024,
	})
	if !errors.Is(err, errPutRefused) {
		t.Fatalf("Run = %v over a store whose Puts fail, want the Put's error", err)
	}
	failed := s.puts.Load() - s.n
	for _, want := range []string{"harness:", fmt.Sprintf("%d operations failed", failed)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Run's error %q does not name the failed count (%q)", err, want)
		}
	}
}

func TestRunOneWriter(t *testing.T) {
	s := newMapStore()
	res, err := Run(s, RunOptions{
		Threads:   4,
		Duration:  50 * time.Millisecond,
		Mix:       workload.ReadOnly, // overridden by OneWriter
		Keys:      256,
		OneWriter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("one-writer mix broken: %+v", res)
	}
}

func TestRunLatencyMeasured(t *testing.T) {
	s := newMapStore()
	res, err := Run(s, RunOptions{
		Threads:        2,
		Duration:       50 * time.Millisecond,
		Mix:            workload.Balanced,
		Keys:           256,
		MeasureLatency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLat.Count() == 0 || res.WriteLat.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
}

func TestRunScansCountKeys(t *testing.T) {
	s := newMapStore()
	if err := Fill(s, func(i uint64) []byte {
		return workload.NewUniform(1024).KeyAt(i, make([]byte, 8))
	}, 1024, 16); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, RunOptions{
		Threads:  2,
		Duration: 50 * time.Millisecond,
		Mix:      workload.ScanWithPct(100),
		Keys:     1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scans == 0 {
		t.Fatal("no scans ran")
	}
	if res.KeysAccessed < res.Scans {
		t.Fatalf("keys accessed %d < scans %d", res.KeysAccessed, res.Scans)
	}
	if res.MkeysPerSec() <= 0 || res.ScanOpsPerSec() <= 0 {
		t.Fatal("scan throughput metrics broken")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Figure X", "threads", "Mops/s", []string{"1", "2"}, []string{"flodb", "rocksdb"})
	tb.Set(0, 0, 1.5)
	tb.Set(0, 1, 3.25)
	tb.Set(1, 0, 0.5)
	tb.Set(1, 1, 12345)
	tb.AddNote("hello %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "flodb", "rocksdb", "1.500", "12345", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	tb.RenderCSV(&buf)
	if !strings.Contains(buf.String(), "flodb,1.5,3.25") {
		t.Fatalf("csv malformed:\n%s", buf.String())
	}
}

func TestByteSize(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2 << 10:   "2KB",
		128 << 20: "128MB",
		192 << 30: "192GB",
	}
	for n, want := range cases {
		if got := ByteSize(n); got != want {
			t.Fatalf("ByteSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestQuiesceNoPanicOnPlainStore(t *testing.T) {
	Quiesce(newMapStore()) // no Quiescer implementation: must be a no-op
}
