package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/sstable"
)

// TestMergeOrderMatchesDefinition checks the typed heap against the order
// the merge has always been defined by — key ascending, then sequence
// number descending, then child rank ascending — over random children
// that share keys and (key, seq) pairs, from the start and from random
// seeks. The value names the child an entry came from, so a tie broken
// toward the wrong rank shows.
func TestMergeOrderMatchesDefinition(t *testing.T) {
	type ranked struct {
		memEntry
		rank int
	}
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 300; round++ {
		var (
			children []InternalIterator
			all      []ranked
		)
		for rank, n := 0, rng.Intn(9); rank < n; rank++ { // 0..8 children, some empty
			var es []memEntry
			seen := map[[2]uint64]bool{}
			for i := rng.Intn(40); i > 0; i-- {
				k, seq := uint64(rng.Intn(24)), uint64(rng.Intn(6))
				if seen[[2]uint64{k, seq}] {
					continue // a sorted run holds a (key, seq) once
				}
				seen[[2]uint64{k, seq}] = true
				es = append(es, memEntry{key: keys.EncodeUint64(k), seq: seq, kind: keys.KindSet, value: []byte{byte(rank)}})
			}
			es = sortedEntries(es)
			children = append(children, &memIter{entries: es})
			for _, e := range es {
				all = append(all, ranked{e, rank})
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if c := keys.Compare(a.key, b.key); c != 0 {
				return c < 0
			}
			if a.seq != b.seq {
				return a.seq > b.seq
			}
			return a.rank < b.rank
		})

		m := NewMergingIterator(children...)
		check := func(what string, from int) {
			t.Helper()
			for i := from; i < len(all); i++ {
				w := all[i]
				if !m.Valid() {
					t.Fatalf("round %d, %s: ended at entry %d of %d", round, what, i, len(all))
				}
				if !bytes.Equal(m.Key(), w.key) || m.Seq() != w.seq || int(m.Value()[0]) != w.rank {
					t.Fatalf("round %d, %s, entry %d: got %x@%d from child %d, want %x@%d from child %d",
						round, what, i, m.Key(), m.Seq(), m.Value()[0], w.key, w.seq, w.rank)
				}
				m.Next()
			}
			if m.Valid() || m.Err() != nil {
				t.Fatalf("round %d, %s: valid=%v err=%v past the last entry", round, what, m.Valid(), m.Err())
			}
		}
		m.SeekToFirst()
		check("SeekToFirst", 0)
		for s := 0; s < 3; s++ {
			target := keys.EncodeUint64(uint64(rng.Intn(26)))
			m.Seek(target)
			check(fmt.Sprintf("Seek(%x)", target), sort.Search(len(all), func(i int) bool { return keys.Compare(all[i].key, target) >= 0 }))
		}
	}
}

// TestMergeIdleChildSurvivesSiblingRefills holds one table child of a
// four-way merge still — it is positioned on the largest key — while its
// siblings (two tables and a level run) step through thousands of entries
// and refill their read windows over and over. The idle child's Key and
// Value, and the copy of its key the merge caches, must not move: every
// child reads through a window of its own.
func TestMergeIdleChildSurvivesSiblingRefills(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BlockSize: 256})
	const perTable = 3000
	flush := func(first, stride, n int, tag string) *FileMeta {
		t.Helper()
		var es []memEntry
		for i := 0; i < n; i++ {
			k := uint64(first + i*stride)
			es = append(es, memEntry{key: keys.EncodeUint64(k), seq: k + 1, kind: keys.KindSet, value: []byte(fmt.Sprintf("%s-%d-%032d", tag, k, k))})
		}
		fm, err := s.Flush(&memIter{entries: es}, 2, uint64(first+n*stride+1))
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	// Interleaved key spaces 0,3,6… / 1,4,7… / 2,5,8… and one key above all.
	busy := []*FileMeta{flush(0, 3, perTable, "a"), flush(1, 3, perTable, "b")}
	run := []*FileMeta{flush(2, 3, perTable, "c")}
	idleKey := uint64(10 * perTable)
	idle := flush(int(idleKey), 1, 1, "idle")

	var (
		children []InternalIterator
		idleIt   *sstable.Iterator
	)
	for _, fm := range append(busy, idle) {
		r, h, err := s.cache.Get(fm.Num)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		it := r.NewIterator()
		if fm == idle {
			idleIt = it
		}
		children = append(children, NewTableIterator(it))
	}
	li := NewLevelIterator(s.cache, run)
	defer li.close()
	m := NewMergingIterator(append(children, li)...).(*mergingIter)

	m.SeekToFirst()
	wantKey := keys.EncodeUint64(idleKey)
	wantVal := bytes.Clone(idleIt.Value())
	for n := uint64(0); n < 3*perTable; n++ {
		if !m.Valid() || keys.DecodeUint64(m.Key()) != n {
			t.Fatalf("entry %d: valid=%v key=%x err=%v", n, m.Valid(), m.Key(), m.Err())
		}
		if want := fmt.Sprintf("%c-%d-%032d", "abc"[n%3], n, n); string(m.Value()) != want {
			t.Fatalf("entry %d: value %q, want %q", n, m.Value(), want)
		}
		if !bytes.Equal(idleIt.Key(), wantKey) || !bytes.Equal(idleIt.Value(), wantVal) {
			t.Fatalf("after %d steps the idle child reads %x=%q", n, idleIt.Key(), idleIt.Value())
		}
		for i := range m.h {
			if !bytes.Equal(m.h[i].key, m.h[i].it.Key()) || m.h[i].seq != m.h[i].it.Seq() {
				t.Fatalf("after %d steps heap item %d caches %x@%d, its child is at %x@%d",
					n, i, m.h[i].key, m.h[i].seq, m.h[i].it.Key(), m.h[i].it.Seq())
			}
		}
		m.Next()
	}
	if !m.Valid() || !bytes.Equal(m.Key(), wantKey) || !bytes.Equal(m.Value(), wantVal) {
		t.Fatalf("idle child's entry: valid=%v key=%x", m.Valid(), m.Key())
	}
	if m.Next(); m.Valid() || m.Err() != nil {
		t.Fatalf("past the end: valid=%v err=%v", m.Valid(), m.Err())
	}
}

// TestRowCacheOnlyGetsFill pins the cache rule: point reads fill the cache
// with the rows they found; a whole-store iterator and a compaction —
// which between them read every block of every table — neither fill nor
// consult it, and leave its bytes, its eviction count and its hit and miss
// counts exactly where they were.
func TestRowCacheOnlyGetsFill(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 4, BaseLevelBytes: 1 << 30, BlockSize: 512, BlockCacheBytes: 256 << 10})
	const perFile = 2000
	flush := func(f int) {
		t.Helper()
		var es []memEntry
		for i := 0; i < perFile; i++ {
			es = append(es, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(f*perFile + i + 1), kind: keys.KindSet, value: bytes.Repeat([]byte{byte(f)}, 40)})
		}
		if _, err := s.Flush(&memIter{entries: es}, uint64(f+2), uint64((f+1)*perFile)); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 3; f++ {
		flush(f)
	}
	for i := 0; i < perFile; i++ {
		if _, _, _, ok, err := s.Get(keys.EncodeUint64(uint64(i))); err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
	}
	filled := s.Metrics()
	if filled.BlockCacheBytes == 0 || filled.BlockCacheBytes > 256<<10 || filled.BlockCacheEvictions == 0 {
		t.Fatalf("Gets should have filled the cache to its budget and overflowed it: %+v", filled)
	}
	same := func(what string) {
		t.Helper()
		m := s.Metrics()
		m.Flushes, m.Compactions, m.FilesPerLevel, m.BytesPerLevel = filled.Flushes, filled.Compactions, filled.FilesPerLevel, filled.BytesPerLevel
		m.CachedTables, m.TableCacheHits, m.TableCacheMisses = filled.CachedTables, filled.TableCacheHits, filled.TableCacheMisses
		if m != filled {
			t.Fatalf("%s moved the row cache or the filter counts:\n now %+v\nwere %+v", what, m, filled)
		}
	}

	it, release, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	release()
	if it.Err() != nil || n != 3*perFile {
		t.Fatalf("full iteration: %d entries, err %v", n, it.Err())
	}
	same("a full iteration")

	flush(3) // the fourth L0 file: compaction
	s.WaitForCompactions()
	if m := s.Metrics(); m.Compactions == 0 || m.FilesPerLevel[0] != 0 {
		t.Fatalf("no compaction ran: %+v", m)
	}
	same("a compaction")

	// The rows of the compacted-away files are dead weight that ages out;
	// the merged file answers, with the newest version, through new rows.
	for i := 0; i < perFile; i += 7 {
		v, seq, _, ok, err := s.Get(keys.EncodeUint64(uint64(i)))
		if err != nil || !ok || seq != uint64(3*perFile+i+1) || v[0] != 3 {
			t.Fatalf("Get(%d) after the compaction: %x@%d ok=%v err=%v", i, v, seq, ok, err)
		}
	}
}

// TestTableFilterProbe pins what a point read pays per file. A key the
// newest L0 file holds is answered by one probe; the older files that also
// hold it are not asked — unless their sequence ranges say they might hold
// something newer, as a file flushed out of order does. A key no file holds
// is turned away by every filter without a table-cache lookup: the filters
// came from the tables' writers. After a reopen each file is opened once,
// to fetch its filter.
func TestTableFilterProbe(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{L0CompactionTrigger: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	const n = 500
	flush := func(seqBase uint64, tag byte) {
		t.Helper()
		var es []memEntry
		for i := 0; i < n; i++ {
			es = append(es, memEntry{key: keys.EncodeUint64(uint64(2 * i)), seq: seqBase + uint64(i), kind: keys.KindSet, value: []byte{tag}})
		}
		if _, err := s.Flush(&memIter{entries: es}, 2, seqBase+n); err != nil {
			t.Fatal(err)
		}
	}
	flush(1000, 'a')
	flush(2000, 'b')
	flush(3000, 'c')
	during := func(fn func()) Metrics {
		before := s.Metrics()
		fn()
		m := s.Metrics()
		m.BloomChecks -= before.BloomChecks
		m.BloomNegatives -= before.BloomNegatives
		m.TableCacheHits -= before.TableCacheHits
		m.TableCacheMisses -= before.TableCacheMisses
		return m
	}
	getAll := func(want byte, wantSeqBase uint64) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, seq, _, ok, err := s.Get(keys.EncodeUint64(uint64(2 * i)))
			if err != nil || !ok || v[0] != want || seq != wantSeqBase+uint64(i) {
				t.Fatalf("Get(%d) = %q@%d ok=%v err=%v, want %q@%d", i, v, seq, ok, err, want, wantSeqBase+uint64(i))
			}
		}
	}
	if m := during(func() { getAll('c', 3000) }); m.BloomChecks != n {
		t.Fatalf("%d Gets answered by the newest of three L0 files consulted %d filters", n, m.BloomChecks)
	}
	// The newest file by number, holding the OLDEST versions: every Get has
	// to look past it, and past 'c' it may stop again.
	flush(1, 'z')
	if m := during(func() { getAll('c', 3000) }); m.BloomChecks != 2*n {
		t.Fatalf("%d Gets behind an out-of-order file consulted %d filters, want %d", n, m.BloomChecks, 2*n)
	}

	absent := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, _, ok, err := s.Get(keys.EncodeUint64(uint64(2*i + 1))); err != nil || ok {
				t.Fatalf("absent key %d: ok=%v err=%v", i, ok, err)
			}
		}
	}
	// Keys in the range of all four files (but for the last) and in none of
	// them. Every file's filter came from its writer, so the table cache
	// sees one lookup per filter pass and nothing else.
	m := during(absent)
	if passes := m.BloomChecks - m.BloomNegatives; m.BloomChecks != 4*(n-1) || m.BloomNegatives < 4*n*9/10 || m.TableCacheHits+m.TableCacheMisses != passes {
		t.Fatalf("absent keys: %d checks, %d negatives, %d table-cache lookups", m.BloomChecks, m.BloomNegatives, m.TableCacheHits+m.TableCacheMisses)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{L0CompactionTrigger: 100}); err != nil {
		t.Fatal(err)
	}
	m = during(absent)
	if passes := m.BloomChecks - m.BloomNegatives; m.BloomNegatives < 4*n*9/10 || m.TableCacheMisses != 4 || m.TableCacheHits > passes {
		t.Fatalf("after a reopen: %d negatives, %d passes, table cache %d misses / %d hits; want one open per file, to fetch its filter", m.BloomNegatives, passes, m.TableCacheMisses, m.TableCacheHits)
	}
	getAll('c', 3000)
}

// TestNewTableFilterFromWriter: a table this process wrote — a flush's or a
// compaction's output — answers a Get its filter rejects without being
// opened. The filter comes from the table's writer, so such a Get adds no
// table-cache miss, and only a Get the filter lets by looks the table up.
func TestNewTableFilterFromWriter(t *testing.T) {
	s, err := Open(t.TempDir(), Options{L0CompactionTrigger: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 400
	flush := func(seqBase uint64) {
		t.Helper()
		var es []memEntry
		for i := 0; i < n; i++ {
			es = append(es, memEntry{key: keys.EncodeUint64(uint64(2 * i)), seq: seqBase + uint64(i), kind: keys.KindSet, value: []byte("v")})
		}
		if _, err := s.Flush(&memIter{entries: es}, 2, seqBase+n); err != nil {
			t.Fatal(err)
		}
	}
	absent := func(stage string) {
		t.Helper()
		for i := 0; i < n-1; i++ {
			before := s.Metrics()
			if _, _, _, ok, err := s.Get(keys.EncodeUint64(uint64(2*i + 1))); err != nil || ok {
				t.Fatalf("%s: absent key %d: ok=%v err=%v", stage, i, ok, err)
			}
			m := s.Metrics()
			rejected := m.BloomNegatives - before.BloomNegatives
			lookups := m.TableCacheHits + m.TableCacheMisses - before.TableCacheHits - before.TableCacheMisses
			if m.BloomChecks-before.BloomChecks != 1 {
				t.Fatalf("%s: a Get over one table consulted %d filters", stage, m.BloomChecks-before.BloomChecks)
			}
			if rejected == 1 && lookups != 0 {
				t.Fatalf("%s: a Get the filter rejected made %d table-cache lookups (%d misses)",
					stage, lookups, m.TableCacheMisses-before.TableCacheMisses)
			}
		}
	}
	flush(1)
	if s.NumLevelFiles(0) != 1 {
		t.Fatalf("%d L0 files after one flush", s.NumLevelFiles(0))
	}
	absent("flushed L0 table")

	flush(1 + n)
	s.MaybeScheduleCompaction()
	s.WaitForCompactions()
	if s.NumLevelFiles(0) != 0 || s.NumLevelFiles(1) != 1 {
		t.Fatalf("after the compaction: %d L0 and %d L1 files, want 0 and 1", s.NumLevelFiles(0), s.NumLevelFiles(1))
	}
	absent("compacted L1 table")
}
