package shard

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"flodb/internal/keys"
)

// reopenedStore writes n spread keys into a 4-shard store routed by split
// (nil: the uniform range split), closes it (the close flushes every
// shard's memory component) and reopens it, so the data is on disk and no
// background work is in flight.
func reopenedStore(tb testing.TB, split Splitter, n uint64) *Store {
	tb.Helper()
	cfg := Config{Dir: tb.TempDir(), Shards: 4, Splitter: split, Core: tinyCore(false)}
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := s.Put(bg, spreadKey(i), keys.EncodeUint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	if s, err = Open(cfg); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// scanFrom opens an iterator over the whole store, seeks to a quarter of
// the keyspace, reads up to n pairs and closes it, returning how many it
// read.
func scanFrom(tb testing.TB, s *Store, n int) int {
	it, err := s.NewIterator(bg, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	read := 0
	for ok := it.Seek(keys.EncodeUint64(1 << 62)); ok && read < n; ok = it.Next() {
		read++
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		tb.Fatal(err)
	}
	return read
}

// TestIteratorStartsNoGoroutine: a cursor over every shard merges them on
// the caller's goroutine — opening it, seeking and stepping start nothing.
func TestIteratorStartsNoGoroutine(t *testing.T) {
	s := reopenedStore(t, nil, 4000)
	scanFrom(t, s, 100)
	before := runtime.NumGoroutine()
	it, err := s.NewIterator(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	ok := it.Seek(keys.EncodeUint64(1 << 62))
	for i := 0; ok && i < 100; i++ {
		ok = it.Next()
	}
	if !ok {
		t.Fatal("iterator ran dry before 100 pairs")
	}
	if during := runtime.NumGoroutine(); during != before {
		t.Fatalf("an open 4-shard iterator runs %d goroutines beside the store's %d", during-before, before)
	}
}

// TestIteratorAllocationBudget pins a 4-shard cursor's cost: open + Seek
// + 100 Next + Close allocates what the four engine cursors and the merge
// do, and nothing per pair — a 2000-pair pass costs what a 100-pair one
// does, give or take a table handle per shard.
func TestIteratorAllocationBudget(t *testing.T) {
	s := reopenedStore(t, nil, 8000)
	budget, perPass := 64.0, 8.0
	if raceEnabled {
		budget, perPass = 160, 64
	}
	for _, n := range []int{100, 2000} {
		if got := scanFrom(t, s, n); got != n {
			t.Fatalf("pass read %d pairs, want %d", got, n)
		}
		scanFrom(t, s, n) // warm the engines' frame pools and read windows
	}
	short := testing.AllocsPerRun(50, func() { scanFrom(t, s, 100) })
	long := testing.AllocsPerRun(50, func() { scanFrom(t, s, 2000) })
	if short > budget || long > short+perPass {
		t.Errorf("open + Seek + Next + Close: %.1f allocations over 100 pairs, %.1f over 2000; want <= %.0f and no more than %.0f apart",
			short, long, budget, perPass)
	}
}

// BenchmarkIterator prices a 4-shard cursor over a quiesced 100 k-key
// store under both routings: open, Seek, n pairs, Close.
func BenchmarkIterator(b *testing.B) {
	for _, routing := range []struct {
		name  string
		split Splitter
	}{{"range", nil}, {"hash", HashSplitter{}}} {
		s := reopenedStore(b, routing.split, 100_000)
		for _, n := range []int{100, 10_000} {
			b.Run(fmt.Sprintf("%s/%d", routing.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scanFrom(b, s, n)
				}
			})
		}
	}
}
