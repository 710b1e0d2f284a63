package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
)

// TestScanSnapshotConsistency is the core linearizability check: a writer
// updates a group of keys to the same version counter in one burst; scans
// must never observe two different counters for keys of one burst unless
// the burst was concurrent with the scan's sequence point: all values a
// scan returns for the group were current at one single point (no value
// older than another group member's by more than the in-flight burst).
func TestScanSnapshotConsistency(t *testing.T) {
	forEachReadConfig(t, 1<<20, testScanSnapshotConsistency)
}

func testScanSnapshotConsistency(t *testing.T, db *DB) {
	const groupSize = 16
	groupKeys := make([][]byte, groupSize)
	for i := range groupKeys {
		// Spread across partitions so the group straddles membuffer areas.
		groupKeys[i] = spreadKey(uint64(i))
	}
	// Scans need bounds covering all group keys: use the full range.
	for _, k := range groupKeys {
		db.Put(bg, k, keys.EncodeUint64(0))
	}

	stop := make(chan struct{})
	var version atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: bump the whole group to version v, then v+1, ...
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := version.Load() + 1
			for _, k := range groupKeys {
				if err := db.Put(bg, k, keys.EncodeUint64(v)); err != nil {
					panic(err)
				}
			}
			version.Store(v) // burst complete
		}
	}()

	deadline := time.Now().Add(time.Second)
	scans := 0
	for time.Now().Before(deadline) {
		before := version.Load()
		pairs, err := db.Scan(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := version.Load()
		got := map[uint64]int{}
		found := 0
		for _, p := range pairs {
			for _, k := range groupKeys {
				if keys.Equal(p.Key, k) {
					got[keys.DecodeUint64(p.Value)]++
					found++
				}
			}
		}
		if found != groupSize {
			t.Fatalf("scan returned %d group keys, want %d", found, groupSize)
		}
		// A consistent snapshot can straddle at most the bursts in flight
		// between before and after+1: observed versions must span at most
		// [before, after+1] and contain at most 2 distinct values (one
		// in-flight burst boundary).
		for v := range got {
			if v+1 < before || v > after+1 {
				t.Fatalf("scan observed version %d outside window [%d, %d]", v, before, after+1)
			}
		}
		if len(got) > 2 {
			t.Fatalf("scan observed %d distinct versions %v — torn snapshot", len(got), got)
		}
		scans++
	}
	close(stop)
	wg.Wait()
	if scans == 0 {
		t.Fatal("no scans completed")
	}
	t.Logf("completed %d scans, stats: %+v", scans, db.Stats())
}

// TestConcurrentScans: scanners on many goroutines each seal and pin their
// own view; all of them must see the whole key set, and every view must be
// released.
func TestConcurrentScans(t *testing.T) {
	forEachReadConfig(t, 1<<20, func(t *testing.T, db *DB) {
		for i := 0; i < 1000; i++ {
			db.Put(bg, spreadKey(uint64(i)), []byte("v"))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					pairs, err := db.Scan(bg, nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if len(pairs) != 1000 {
						t.Errorf("scan returned %d pairs, want 1000", len(pairs))
						return
					}
				}
			}()
		}
		wg.Wait()
		if st := db.Stats(); st.Scans != 160 {
			t.Fatalf("scan accounting: %+v", st)
		}
		if open := openBounds(db); open != 0 {
			t.Fatalf("%d sequence bounds still registered with no reader open", open)
		}
	})
}

func TestScanWhileWriteHeavy(t *testing.T) {
	// The paper's 95/5 scan-write mix in miniature: heavy updates with
	// concurrent scans. Scans must always return sorted, deduplicated,
	// in-range results.
	cfg := testConfig(t)
	cfg.MemoryBytes = 256 << 10
	db := openTestDB(t, cfg)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				db.Put(bg, spreadKey(i%4096), keys.EncodeUint64(i))
			}
		}(w)
	}

	for s := 0; s < 50; s++ {
		pairs, err := db.Scan(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pairs); i++ {
			if keys.Compare(pairs[i-1].Key, pairs[i].Key) >= 0 {
				t.Fatal("scan results unsorted or duplicated")
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestScanSkipsPostOpenInserts: a key INSERTED (not overwritten) after a
// view's sequence point is simply not part of the view — whether the
// insert is still in the Membuffer, was drained into the live Memtable
// under the cursor, or was persisted.
func TestScanSkipsPostOpenInserts(t *testing.T) {
	forEachReadConfig(t, 256<<10, func(t *testing.T, db *DB) {
		for i := 0; i < 100; i++ {
			db.Put(bg, spreadKey(uint64(i)), keys.EncodeUint64(uint64(i)))
		}
		it, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()

		// The writer inserts brand-new keys only, a burst per scan round,
		// so the store grows with the rounds rather than with the clock.
		const rounds, burst = 50, 200
		var round atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < rounds*burst; {
				if i >= (round.Load()+1)*burst {
					runtime.Gosched()
					continue
				}
				db.Put(bg, spreadKey(uint64(1<<40+i)), []byte("new"))
				i++
			}
		}()
		for s := 0; s < rounds; s++ {
			round.Store(int64(s))
			// Fresh scans see a growing key set (and seal, pushing the
			// inserts into the Memtable the open iterator reads)...
			pairs, err := db.Scan(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// (The DropPersist store discards full Memtables, original
			// keys included — from new views, not from the open one.)
			if !db.cfg.DropPersist && len(pairs) < 100 {
				t.Fatalf("scan %d returned %d pairs", s, len(pairs))
			}
			// ...while the iterator opened before the inserts never does.
			if got := len(drive(t, it, it.First())); got != 100 {
				t.Fatalf("pass %d: iterator opened before the inserts saw %d pairs, want 100", s, got)
			}
		}
		round.Store(rounds)
		wg.Wait()
	})
}

func TestScanDuringPersist(t *testing.T) {
	// Scans racing persists must never lose keys: write a fixed key set,
	// then scan repeatedly while persists are forced.
	cfg := testConfig(t)
	cfg.MemoryBytes = 128 << 10
	db := openTestDB(t, cfg)
	const n = 1000
	for i := 0; i < n; i++ {
		db.Put(bg, spreadKey(uint64(i)), keys.EncodeUint64(uint64(i)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn distinct keys to force persists
		defer wg.Done()
		i := uint64(n)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			db.Put(bg, spreadKey(i), []byte("churn"))
		}
	}()
	for s := 0; s < 30; s++ {
		pairs, err := db.Scan(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, p := range pairs {
			if len(p.Value) == 8 && keys.DecodeUint64(p.Value) < n {
				seen++
			}
		}
		if seen != n {
			t.Fatalf("scan %d lost keys: saw %d of %d", s, seen, n)
		}
	}
	close(stop)
	wg.Wait()
}
