package baseline

import (
	"bytes"
	"context"

	"math/rand"
	"sync"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// bg is the context threaded through every store call in these tests.
var bg = context.Background()

// openers enumerates every baseline variant so the whole battery runs
// against each — the paper evaluates all of them under identical drivers.
var openers = []struct {
	name string
	open func(cfg Config) (kv.Store, error)
}{
	{"leveldb", func(cfg Config) (kv.Store, error) { return NewLevelDB(cfg) }},
	{"hyperleveldb", func(cfg Config) (kv.Store, error) { return NewHyperLevelDB(cfg) }},
	{"rocksdb", func(cfg Config) (kv.Store, error) { return NewRocksDB(cfg) }},
	{"clsm", func(cfg Config) (kv.Store, error) { return NewCLSM(cfg) }},
}

func forEachStore(t *testing.T, memBytes int64, fn func(t *testing.T, s kv.Store)) {
	for _, o := range openers {
		t.Run(o.name, func(t *testing.T) {
			s, err := o.open(Config{Dir: t.TempDir(), MemBytes: memBytes})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			fn(t, s)
		})
	}
}

func spread(i uint64) []byte { return keys.EncodeUint64(i * 0x9e3779b97f4a7c15) }

func TestBasicOps(t *testing.T) {
	forEachStore(t, 1<<20, func(t *testing.T, s kv.Store) {
		if err := s.Put(bg, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.Get(bg, []byte("k"))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get = %q %v %v", v, ok, err)
		}
		if _, ok, _ := s.Get(bg, []byte("nope")); ok {
			t.Fatal("phantom key")
		}
		if err := s.Delete(bg, []byte("k")); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Get(bg, []byte("k")); ok {
			t.Fatal("deleted key visible")
		}
		s.Put(bg, []byte("k"), []byte("v2"))
		v, ok, _ = s.Get(bg, []byte("k"))
		if !ok || string(v) != "v2" {
			t.Fatal("reinsert failed")
		}
	})
}

func TestOverwriteLatestWins(t *testing.T) {
	forEachStore(t, 1<<20, func(t *testing.T, s kv.Store) {
		k := []byte("key")
		for i := 0; i < 50; i++ {
			s.Put(bg, k, keys.EncodeUint64(uint64(i)))
		}
		v, ok, _ := s.Get(bg, k)
		if !ok || keys.DecodeUint64(v) != 49 {
			t.Fatalf("latest version lost: %x", v)
		}
	})
}

func TestFlushAndReadBack(t *testing.T) {
	// Small memtable forces flushes mid-stream; all data must remain
	// visible across the memory/disk boundary.
	forEachStore(t, 32<<10, func(t *testing.T, s kv.Store) {
		const n = 2000
		for i := 0; i < n; i++ {
			if err := s.Put(bg, spread(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 7 {
			v, ok, err := s.Get(bg, spread(uint64(i)))
			if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
				t.Fatalf("key %d: %v %v %v", i, v, ok, err)
			}
		}
	})
}

func TestScanSortedAndComplete(t *testing.T) {
	forEachStore(t, 64<<10, func(t *testing.T, s kv.Store) {
		const n = 500
		want := map[string]uint64{}
		for i := 0; i < n; i++ {
			k := spread(uint64(i))
			s.Put(bg, k, keys.EncodeUint64(uint64(i)))
			want[string(k)] = uint64(i)
		}
		pairs, err := s.Scan(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != n {
			t.Fatalf("scan returned %d of %d", len(pairs), n)
		}
		for i := 1; i < len(pairs); i++ {
			if bytes.Compare(pairs[i-1].Key, pairs[i].Key) >= 0 {
				t.Fatal("unsorted scan")
			}
		}
		for _, p := range pairs {
			if want[string(p.Key)] != keys.DecodeUint64(p.Value) {
				t.Fatalf("wrong value for %x", p.Key)
			}
		}
	})
}

func TestMultiVersioningGrowsMemtable(t *testing.T) {
	// §3.2: repeatedly updating ONE key fills a multi-versioned memtable
	// and triggers flushes — the exact behaviour FloDB's in-place updates
	// avoid. This is the mechanism behind Fig 16.
	cfg := Config{Dir: t.TempDir(), MemBytes: 32 << 10}
	s, err := NewRocksDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := []byte("hot-key")
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 2000; i++ {
		if err := s.Put(bg, k, val); err != nil {
			t.Fatal(err)
		}
	}
	if flushes := s.Stats().Flushes; flushes == 0 {
		t.Fatal("single-key updates never filled the multi-versioned memtable")
	}
	v, ok, _ := s.Get(bg, k)
	if !ok || !bytes.Equal(v, val) {
		t.Fatal("hot key lost")
	}
}

func TestConcurrentWriters(t *testing.T) {
	forEachStore(t, 256<<10, func(t *testing.T, s kv.Store) {
		const workers = 8
		const per = 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					k := spread(uint64(w*per + i))
					if err := s.Put(bg, k, keys.EncodeUint64(uint64(i))); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i += 97 {
				k := spread(uint64(w*per + i))
				v, ok, err := s.Get(bg, k)
				if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
					t.Fatalf("w%d i%d: %v %v %v", w, i, v, ok, err)
				}
			}
		}
	})
}

func TestConcurrentMixed(t *testing.T) {
	forEachStore(t, 128<<10, func(t *testing.T, s kv.Store) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					s.Put(bg, spread(rng.Uint64()%2048), keys.EncodeUint64(uint64(i)))
				}
			}(w)
		}
		for r := 0; r < 2000; r++ {
			if _, _, err := s.Get(bg, spread(uint64(r%2048))); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 5; r++ {
			pairs, err := s.Scan(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(pairs); i++ {
				if bytes.Compare(pairs[i-1].Key, pairs[i].Key) >= 0 {
					t.Fatal("unsorted concurrent scan")
				}
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestRecoveryBaselines(t *testing.T) {
	for _, o := range openers {
		t.Run(o.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := o.open(Config{Dir: dir, MemBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const n = 1000
			for i := 0; i < n; i++ {
				if err := s.Put(bg, spread(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := o.open(Config{Dir: dir, MemBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for i := 0; i < n; i += 13 {
				v, ok, err := s2.Get(bg, spread(uint64(i)))
				if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
					t.Fatalf("key %d after restart: %v %v %v", i, v, ok, err)
				}
			}
		})
	}
}

func TestScanSnapshotIgnoresNewerVersions(t *testing.T) {
	// Multi-versioned scan correctness: versions written after the scan's
	// snapshot sequence must be invisible.
	s, err := NewCLSM(Config{Dir: t.TempDir(), MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(bg, spread(uint64(i)), keys.EncodeUint64(0))
	}
	// Capture view+snapshot manually, then write newer versions.
	v := s.view.Load()
	snap := s.seq.Load()
	for i := 0; i < 100; i++ {
		s.Put(bg, spread(uint64(i)), keys.EncodeUint64(999))
	}
	it, err := s.ViewIterator(bg, s.pinned(v.mem, v.imm, snap), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := kv.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("snapshot scan returned %d", len(pairs))
	}
	for _, p := range pairs {
		if keys.DecodeUint64(p.Value) != 0 {
			t.Fatal("snapshot scan observed post-snapshot version")
		}
	}
}

func TestSkipMemVersions(t *testing.T) {
	m := newSkipMem()
	k := []byte("k")
	m.Insert(k, 1, keys.KindSet, []byte("v1"))
	m.Insert(k, 3, keys.KindSet, []byte("v3"))
	if v, seq, _, ok := m.Get(k, 2); !ok || seq != 1 || string(v) != "v1" {
		t.Fatalf("snapshot 2: %q@%d %v", v, seq, ok)
	}
	if v, seq, _, ok := m.Get(k, keys.MaxSeq); !ok || seq != 3 || string(v) != "v3" {
		t.Fatalf("snapshot max: %q@%d %v", v, seq, ok)
	}
	if m.Len() != 2 {
		t.Fatal("multi-versioning should keep both versions")
	}
}

func TestStatsProvider(t *testing.T) {
	s, _ := NewLevelDB(Config{Dir: t.TempDir(), MemBytes: 1 << 20})
	defer s.Close()
	s.Put(bg, []byte("a"), []byte("1"))
	s.Get(bg, []byte("a"))
	s.Delete(bg, []byte("a"))
	s.Scan(bg, nil, nil)
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Deletes != 1 || st.Scans != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewLevelDB(Config{}); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func BenchmarkPut(b *testing.B) {
	for _, o := range openers {
		b.Run(o.name, func(b *testing.B) {
			s, err := o.open(Config{Dir: b.TempDir(), MemBytes: 64 << 20, DisableWAL: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			val := bytes.Repeat([]byte("v"), 256)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					s.Put(bg, spread(rng.Uint64()), val)
				}
			})
		})
	}
}

func TestIteratorMatchesScanBaselines(t *testing.T) {
	forEachStore(t, 64<<10, func(t *testing.T, s kv.Store) {
		const n = 800
		for i := 0; i < n; i++ {
			if err := s.Put(bg, spread(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if i := n / 2; true {
			s.Delete(bg, spread(uint64(i))) // a tombstone in range
		}
		want, err := s.Scan(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		it, err := s.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if i >= len(want) || !bytes.Equal(it.Key(), want[i].Key) || !bytes.Equal(it.Value(), want[i].Value) {
				t.Fatalf("iterator diverged from Scan at %d", i)
			}
			i++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("iterator %d pairs, Scan %d", i, len(want))
		}
	})
}

func TestIteratorPinsSnapshotBaselines(t *testing.T) {
	// The multi-versioned baselines pin ONE snapshot for the iterator's
	// lifetime: writes racing the cursor must stay invisible, however
	// slowly the caller drains it.
	forEachStore(t, 1<<20, func(t *testing.T, s kv.Store) {
		const n = 200
		for i := 0; i < n; i++ {
			s.Put(bg, spread(uint64(i)), keys.EncodeUint64(0))
		}
		it, err := s.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		count := 0
		for ok := it.First(); ok; ok = it.Next() {
			// Overwrite ahead of the cursor mid-iteration.
			if count == 10 {
				for i := 0; i < n; i++ {
					s.Put(bg, spread(uint64(i)), keys.EncodeUint64(999))
				}
			}
			if keys.DecodeUint64(it.Value()) != 0 {
				t.Fatalf("iterator observed post-snapshot version at %x", it.Key())
			}
			count++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("iterated %d of %d", count, n)
		}
	})
}

func TestApplyBaselines(t *testing.T) {
	forEachStore(t, 64<<10, func(t *testing.T, s kv.Store) {
		if err := s.Apply(bg, nil); err != nil {
			t.Fatal("nil batch:", err)
		}
		s.Put(bg, []byte("pre"), []byte("old"))
		b := kv.NewBatch()
		const n = 300
		for i := 0; i < n; i++ {
			b.Put(spread(uint64(i)), keys.EncodeUint64(uint64(i)))
		}
		b.Delete([]byte("pre"))
		if err := s.Apply(bg, b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 7 {
			v, ok, err := s.Get(bg, spread(uint64(i)))
			if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
				t.Fatalf("batched key %d: %v %v %v", i, v, ok, err)
			}
		}
		if _, ok, _ := s.Get(bg, []byte("pre")); ok {
			t.Fatal("batched delete ineffective")
		}
		if sp, ok := s.(kv.StatsProvider); ok {
			st := sp.Stats()
			if st.Batches != 1 || st.BatchOps != uint64(n+1) {
				t.Fatalf("stats: %+v", st)
			}
		}
	})
}

func TestApplyRecoversBaselines(t *testing.T) {
	// A batch written before an abrupt-but-synced shutdown must recover
	// whole: one WAL record carrying every op.
	for _, o := range openers {
		t.Run(o.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := o.open(Config{Dir: dir, MemBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			b := kv.NewBatch()
			for i := 0; i < 100; i++ {
				b.Put(spread(uint64(i)), keys.EncodeUint64(uint64(i)))
			}
			if err := s.Apply(bg, b); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := o.open(Config{Dir: dir, MemBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for i := 0; i < 100; i++ {
				v, ok, err := s2.Get(bg, spread(uint64(i)))
				if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
					t.Fatalf("batched key %d after restart: %v %v %v", i, v, ok, err)
				}
			}
		})
	}
}
