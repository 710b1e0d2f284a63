package sstable

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"flodb/internal/cache"
	"flodb/internal/keys"
)

// rowTable builds a table of n 8-byte keys with valueLen-byte values and
// opens it over a cache of cacheBytes.
func rowTable(t *testing.T, n, valueLen int, cacheBytes int64) (*Reader, *cache.Cache, []testEntry) {
	t.Helper()
	entries := seqEntries(n)
	for i := range entries {
		entries[i].value = bytes.Repeat([]byte{byte(i)}, valueLen)
	}
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, entries)
	bc := cache.New(cacheBytes)
	r, err := OpenOptions(path, ReaderOptions{BlockCache: bc, CacheID: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, bc, entries
}

// TestRowCacheChargeIsHonest holds the charge of a cached row to what the
// row really costs: over a few value sizes (the benchmark's 256 bytes among
// them) N rows are charged no more than the budget, and the live heap grows
// by no more than 1.25x what the cache says it holds, nor by less than
// 0.9x — a charge that overstates the cost leaves budget unused.
func TestRowCacheChargeIsHonest(t *testing.T) {
	for _, valueLen := range []int{16, 100, 256, 1000} {
		const n = 20000
		r, bc, entries := rowTable(t, n, valueLen, 1<<30)
		live := func() uint64 {
			runtime.GC()
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return m.HeapAlloc
		}
		before := live()
		for _, e := range entries {
			if _, _, _, ok, err := r.Get(e.key); err != nil || !ok {
				t.Fatalf("Get(%x): ok=%v err=%v", e.key, ok, err)
			}
		}
		grown := int64(live() - before)
		st := bc.Stats()
		if st.Entries != n || st.Bytes != int64(n*(8+valueLen+rowOverhead)) {
			t.Fatalf("%d-byte values: %d rows charged %d bytes", valueLen, st.Entries, st.Bytes)
		}
		t.Logf("%d-byte values: %d rows charged %d B each, cost %d B each", valueLen, n, st.Bytes/n, grown/n)
		if r := float64(grown) / float64(st.Bytes); r > 1.25 || r < 0.9 {
			t.Fatalf("%d-byte values: heap grew %d bytes for %d charged (%.2fx)", valueLen, grown, st.Bytes, r)
		}
		runtime.KeepAlive(bc)
		runtime.KeepAlive(entries)
	}
}

// TestRowCacheGetAllocations is the point read's allocation budget in this
// layer: a Get that finds its row cached allocates nothing; one that reads
// the block allocates the row (its struct, its bytes) and the cache's entry
// and nothing that grows with the block — the block itself lands in a
// pooled buffer.
func TestRowCacheGetAllocations(t *testing.T) {
	r, bc, entries := rowTable(t, 4000, 256, 1<<30)
	if int(r.index[0].length) < 3<<10 {
		t.Fatalf("blocks of %d bytes: too small to show in an allocation count", r.index[0].length)
	}
	i := 0
	miss := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok, err := r.Get(entries[i].key); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		i++
	})
	if st := bc.Stats(); st.Hits != 0 || st.Entries != i {
		t.Fatalf("the miss run hit %d times and left %d rows for %d Gets", st.Hits, st.Entries, i)
	}
	if miss > 3 {
		t.Fatalf("a Get that reads its block: %.1f allocations, budget 3", miss)
	}
	i = 0
	hit := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok, err := r.Get(entries[i].key); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		i++
	})
	if hit != 0 {
		t.Fatalf("a Get that finds its row: %.1f allocations, budget 0", hit)
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	const gets = 2000
	for _, e := range entries[2000 : 2000+gets] {
		r.Get(e.key)
	}
	runtime.ReadMemStats(&m)
	// A row and its entry are ~450 bytes. Half a block leaves room for the
	// race detector, under which sync.Pool drops a quarter of its Puts.
	if perGet := (m.TotalAlloc - before) / gets; 2*perGet > uint64(r.index[0].length) {
		t.Fatalf("a Get that reads its %d-byte block allocated %d bytes", r.index[0].length, perGet)
	}
}

// TestRowCacheServesWhatTheTableHolds reads every key and its absent
// neighbours through a cache too small to hold anything, one that holds a
// part, and one that holds all, twice each (fill, then hit), against the
// entries the table was built from — tombstones and hash-sharing keys of
// other tables included.
func TestRowCacheServesWhatTheTableHolds(t *testing.T) {
	for _, cacheBytes := range []int64{1, 64 << 10, 64 << 20} {
		r, bc, entries := rowTable(t, 3000, 40, cacheBytes)
		// Same cache, same keys, another table: rows must not cross.
		other := seqEntries(3000)
		for i := range other {
			other[i].value = []byte("other")
		}
		otherPath := filepath.Join(t.TempDir(), "o.sst")
		buildTable(t, otherPath, WriterOptions{}, other)
		o, err := OpenOptions(otherPath, ReaderOptions{BlockCache: bc, CacheID: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		for pass := 0; pass < 2; pass++ {
			for i, e := range entries {
				v, seq, kind, ok, err := r.Get(e.key)
				if err != nil || !ok || seq != e.seq || kind != e.kind || !bytes.Equal(v, e.value) {
					t.Fatalf("cache %d pass %d: Get(%x) = %q@%d %v ok=%v err=%v", cacheBytes, pass, e.key, v, seq, kind, ok, err)
				}
				if v, _, _, ok, _ := o.Get(e.key); !ok || string(v) != "other" {
					t.Fatalf("cache %d pass %d: the other table's %x = %q ok=%v", cacheBytes, pass, e.key, v, ok)
				}
				if _, _, _, ok, _ := r.Get(keys.Successor(e.key)); ok {
					t.Fatalf("cache %d pass %d: found the absent successor of entry %d", cacheBytes, pass, i)
				}
			}
		}
		if st := bc.Stats(); cacheBytes > 1<<20 && (st.Hits < 6000 || st.Evictions != 0) {
			t.Fatalf("a cache larger than the data: %+v", st)
		}
	}
}
