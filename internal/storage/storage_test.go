package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/skiplist"
	"flodb/internal/sstable"
)

// memIter adapts a sorted in-memory slice to InternalIterator for flushes.
type memEntry struct {
	key   []byte
	seq   uint64
	kind  keys.Kind
	value []byte
}

type memIter struct {
	entries []memEntry
	i       int
}

func (m *memIter) SeekToFirst() { m.i = 0 }
func (m *memIter) Seek(key []byte) {
	m.i = sort.Search(len(m.entries), func(i int) bool {
		return keys.Compare(m.entries[i].key, key) >= 0
	})
}
func (m *memIter) Next()           { m.i++ }
func (m *memIter) Valid() bool     { return m.i < len(m.entries) }
func (m *memIter) Key() []byte     { return m.entries[m.i].key }
func (m *memIter) Seq() uint64     { return m.entries[m.i].seq }
func (m *memIter) Kind() keys.Kind { return m.entries[m.i].kind }
func (m *memIter) Value() []byte   { return m.entries[m.i].value }
func (m *memIter) Err() error      { return nil }

func sortedEntries(entries []memEntry) []memEntry {
	sort.Slice(entries, func(i, j int) bool {
		c := keys.Compare(entries[i].key, entries[j].key)
		if c != 0 {
			return c < 0
		}
		return entries[i].seq > entries[j].seq
	})
	return entries
}

func openTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFlushAndGet(t *testing.T) {
	s := openTestStore(t, Options{})
	var entries []memEntry
	for i := 0; i < 100; i++ {
		entries = append(entries, memEntry{
			key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 1),
			kind: keys.KindSet, value: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	fm, err := s.Flush(&memIter{entries: sortedEntries(entries)}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fm == nil || fm.Count != 100 {
		t.Fatalf("flush meta = %+v", fm)
	}
	if s.NumLevelFiles(0) != 1 {
		t.Fatalf("L0 files = %d", s.NumLevelFiles(0))
	}
	for i := 0; i < 100; i++ {
		v, seq, kind, ok, err := s.Get(keys.EncodeUint64(uint64(i)))
		if err != nil || !ok || kind != keys.KindSet || seq != uint64(i+1) {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q", i, v)
		}
	}
	if _, _, _, ok, _ := s.Get(keys.EncodeUint64(1000)); ok {
		t.Fatal("missing key found")
	}
}

func TestEmptyFlushAdvancesLog(t *testing.T) {
	s := openTestStore(t, Options{})
	fm, err := s.Flush(&memIter{}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fm != nil {
		t.Fatal("empty flush should create no file")
	}
	if s.LogNum() != 7 {
		t.Fatalf("LogNum = %d", s.LogNum())
	}
	if s.NumLevelFiles(0) != 0 {
		t.Fatal("empty flush created a file")
	}
}

func TestNewerFlushShadowsOlder(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100}) // no compaction
	k := keys.EncodeUint64(42)
	s.Flush(&memIter{entries: []memEntry{{key: k, seq: 1, kind: keys.KindSet, value: []byte("old")}}}, 2, 1)
	s.Flush(&memIter{entries: []memEntry{{key: k, seq: 9, kind: keys.KindSet, value: []byte("new")}}}, 3, 9)
	v, seq, _, ok, err := s.Get(k)
	if err != nil || !ok || seq != 9 || string(v) != "new" {
		t.Fatalf("Get = %q@%d ok=%v err=%v", v, seq, ok, err)
	}
}

func TestTombstoneShadowsOnDisk(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100})
	k := keys.EncodeUint64(42)
	s.Flush(&memIter{entries: []memEntry{{key: k, seq: 1, kind: keys.KindSet, value: []byte("live")}}}, 2, 1)
	s.Flush(&memIter{entries: []memEntry{{key: k, seq: 5, kind: keys.KindDelete}}}, 3, 5)
	_, seq, kind, ok, err := s.Get(k)
	if err != nil || !ok || kind != keys.KindDelete || seq != 5 {
		t.Fatalf("tombstone not returned: kind=%v seq=%d ok=%v err=%v", kind, seq, ok, err)
	}
}

func TestCompactionMergesL0(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 4, BaseLevelBytes: 1 << 30})
	// Four overlapping L0 files; trigger compaction.
	for f := 0; f < 4; f++ {
		var entries []memEntry
		for i := 0; i < 50; i++ {
			entries = append(entries, memEntry{
				key: keys.EncodeUint64(uint64(i)), seq: uint64(f*100 + i + 1),
				kind: keys.KindSet, value: []byte(fmt.Sprintf("f%d-%d", f, i)),
			})
		}
		if _, err := s.Flush(&memIter{entries: sortedEntries(entries)}, uint64(f+2), uint64(f*100+50)); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitForCompactions()
	if got := s.NumLevelFiles(0); got != 0 {
		t.Fatalf("L0 files after compaction = %d", got)
	}
	if got := s.NumLevelFiles(1); got == 0 {
		t.Fatal("L1 empty after compaction")
	}
	// Newest file (f=3) must win for every key.
	for i := 0; i < 50; i++ {
		v, _, _, ok, err := s.Get(keys.EncodeUint64(uint64(i)))
		if err != nil || !ok {
			t.Fatalf("Get(%d) after compaction: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("f3-%d", i); string(v) != want {
			t.Fatalf("Get(%d) = %q, want %q", i, v, want)
		}
	}
	if c, f := s.compactions.Load(), s.flushes.Load(); c == 0 || f != 4 {
		t.Fatalf("%d compactions, %d flushes; want some and 4", c, f)
	}
}

func TestTombstonesDroppedAtBottom(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 30})
	k := keys.EncodeUint64(7)
	s.Flush(&memIter{entries: []memEntry{{key: k, seq: 1, kind: keys.KindSet, value: []byte("v")}}}, 2, 1)
	s.Flush(&memIter{entries: []memEntry{{key: k, seq: 2, kind: keys.KindDelete}}}, 3, 2)
	s.WaitForCompactions()
	// After L0->L1 compaction with nothing deeper, both the value and the
	// tombstone must be gone.
	_, _, _, ok, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deleted key still visible on disk")
	}
	// The output table should contain zero entries for k; in fact the
	// whole level should hold no files (the only key was dropped).
	if n := s.NumLevelFiles(1); n != 0 {
		t.Fatalf("L1 files = %d, want 0 (everything was dropped)", n)
	}
}

func TestDiskIterator(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100})
	// Two L0 files with interleaved and overlapping keys.
	s.Flush(&memIter{entries: sortedEntries([]memEntry{
		{key: keys.EncodeUint64(1), seq: 1, kind: keys.KindSet, value: []byte("a1")},
		{key: keys.EncodeUint64(3), seq: 2, kind: keys.KindSet, value: []byte("a3")},
		{key: keys.EncodeUint64(5), seq: 3, kind: keys.KindSet, value: []byte("a5")},
	})}, 2, 3)
	s.Flush(&memIter{entries: sortedEntries([]memEntry{
		{key: keys.EncodeUint64(2), seq: 4, kind: keys.KindSet, value: []byte("b2")},
		{key: keys.EncodeUint64(3), seq: 5, kind: keys.KindSet, value: []byte("b3")},
	})}, 3, 5)

	it, release, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, fmt.Sprintf("%d@%d=%s", keys.DecodeUint64(it.Key()), it.Seq(), it.Value()))
	}
	want := []string{"1@1=a1", "2@4=b2", "3@5=b3", "3@2=a3", "5@3=a5"}
	if len(got) != len(want) {
		t.Fatalf("iterated %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestIteratorSeekAcrossLevels(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 30})
	var entries []memEntry
	for i := 0; i < 100; i += 2 {
		entries = append(entries, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 1), kind: keys.KindSet, value: []byte("even")})
	}
	s.Flush(&memIter{entries: sortedEntries(entries)}, 2, 101)
	entries = nil
	for i := 1; i < 100; i += 2 {
		entries = append(entries, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 200), kind: keys.KindSet, value: []byte("odd")})
	}
	s.Flush(&memIter{entries: sortedEntries(entries)}, 3, 300)
	s.WaitForCompactions() // push everything to L1

	it, release, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	it.Seek(keys.EncodeUint64(50))
	for want := uint64(50); want < 60; want++ {
		if !it.Valid() || keys.DecodeUint64(it.Key()) != want {
			t.Fatalf("seek walk at %d: valid=%v", want, it.Valid())
		}
		it.Next()
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{L0CompactionTrigger: 100})
	if err != nil {
		t.Fatal(err)
	}
	var entries []memEntry
	for i := 0; i < 50; i++ {
		entries = append(entries, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 1), kind: keys.KindSet, value: []byte("v")})
	}
	if _, err := s.Flush(&memIter{entries: sortedEntries(entries)}, 5, 50); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{L0CompactionTrigger: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LogNum() != 5 || s2.LastSeq() != 50 {
		t.Fatalf("recovered log=%d seq=%d", s2.LogNum(), s2.LastSeq())
	}
	if s2.NumLevelFiles(0) != 1 {
		t.Fatalf("recovered L0 = %d", s2.NumLevelFiles(0))
	}
	for i := 0; i < 50; i++ {
		if _, _, _, ok, err := s2.Get(keys.EncodeUint64(uint64(i))); !ok || err != nil {
			t.Fatalf("Get(%d) after recovery: ok=%v err=%v", i, ok, err)
		}
	}
	// File numbers must not be reused after recovery.
	if n := s2.NewFileNum(); n <= 5 {
		t.Fatalf("file numbers reused: %d", n)
	}
}

func TestRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 30})
	for f := 0; f < 3; f++ {
		var entries []memEntry
		for i := 0; i < 20; i++ {
			entries = append(entries, memEntry{
				key: keys.EncodeUint64(uint64(i)), seq: uint64(f*100 + i + 1),
				kind: keys.KindSet, value: []byte(fmt.Sprintf("f%d", f)),
			})
		}
		s.Flush(&memIter{entries: sortedEntries(entries)}, uint64(f+2), uint64(f*100+20))
	}
	s.WaitForCompactions()
	s.Close()

	s2, err := Open(dir, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 20; i++ {
		v, _, _, ok, err := s2.Get(keys.EncodeUint64(uint64(i)))
		if err != nil || !ok || string(v) != "f2" {
			t.Fatalf("Get(%d) = %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestObsoleteFilesDeleted(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 30})
	defer s.Close()
	for f := 0; f < 4; f++ {
		var entries []memEntry
		for i := 0; i < 10; i++ {
			entries = append(entries, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(f*100 + i + 1), kind: keys.KindSet, value: []byte("v")})
		}
		s.Flush(&memIter{entries: sortedEntries(entries)}, uint64(f+2), uint64(f*100+10))
	}
	s.WaitForCompactions()
	// Count .sst files on disk; must equal live files in the version.
	ents, _ := os.ReadDir(dir)
	var onDisk int
	for _, e := range ents {
		if kind, _ := ParseFileName(e.Name()); kind == KindTable {
			onDisk++
		}
	}
	live := 0
	for l := 0; l < NumLevels; l++ {
		live += s.NumLevelFiles(l)
	}
	if onDisk != live {
		t.Fatalf("on disk %d tables, live %d", onDisk, live)
	}
}

func TestIteratorPinsVersion(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 30})
	var entries []memEntry
	for i := 0; i < 30; i++ {
		entries = append(entries, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 1), kind: keys.KindSet, value: []byte("v0")})
	}
	s.Flush(&memIter{entries: sortedEntries(entries)}, 2, 30)

	it, release, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst() // position on the old version's files

	// Compact everything away underneath the iterator.
	var e2 []memEntry
	for i := 0; i < 30; i++ {
		e2 = append(e2, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 100), kind: keys.KindSet, value: []byte("v1")})
	}
	s.Flush(&memIter{entries: sortedEntries(e2)}, 3, 130)
	s.WaitForCompactions()

	// The pinned iterator must still read the old file contents.
	n := 0
	for ; it.Valid(); it.Next() {
		if it.Seq() <= 30 {
			n++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("pinned iterator failed: %v", err)
	}
	if n != 30 {
		t.Fatalf("pinned iterator saw %d old entries", n)
	}
	release()
}

func TestParseFileName(t *testing.T) {
	cases := []struct {
		name string
		kind FileKind
		num  uint64
	}{
		{"000001.sst", KindTable, 1},
		{"123456.wal", KindWAL, 123456},
		{"MANIFEST-000003", KindManifest, 3},
		{"CURRENT", KindCurrent, 0},
		{"000009.tmp", KindTemp, 9},
		{"garbage", KindUnknown, 0},
		{"xxx.sst", KindUnknown, 0},
		{"MANIFEST-abc", KindUnknown, 0},
	}
	for _, tc := range cases {
		kind, num := ParseFileName(tc.name)
		if kind != tc.kind || num != tc.num {
			t.Errorf("ParseFileName(%q) = %v,%d", tc.name, kind, num)
		}
	}
}

func TestMergingIteratorOrdersBySeq(t *testing.T) {
	a := &memIter{entries: []memEntry{
		{key: keys.EncodeUint64(1), seq: 10, kind: keys.KindSet, value: []byte("new")},
	}}
	b := &memIter{entries: []memEntry{
		{key: keys.EncodeUint64(1), seq: 5, kind: keys.KindSet, value: []byte("old")},
		{key: keys.EncodeUint64(2), seq: 6, kind: keys.KindSet, value: []byte("two")},
	}}
	m := NewMergingIterator(a, b)
	m.SeekToFirst()
	if !m.Valid() || m.Seq() != 10 {
		t.Fatalf("first entry seq = %d", m.Seq())
	}
	m.Next()
	if m.Seq() != 5 {
		t.Fatalf("second entry seq = %d", m.Seq())
	}
	m.Next()
	if keys.DecodeUint64(m.Key()) != 2 {
		t.Fatal("third entry wrong key")
	}
	m.Next()
	if m.Valid() {
		t.Fatal("iterator should be exhausted")
	}
}

func TestMergingIteratorSeek(t *testing.T) {
	a := &memIter{entries: []memEntry{
		{key: keys.EncodeUint64(1), seq: 1, kind: keys.KindSet},
		{key: keys.EncodeUint64(5), seq: 2, kind: keys.KindSet},
	}}
	b := &memIter{entries: []memEntry{
		{key: keys.EncodeUint64(3), seq: 3, kind: keys.KindSet},
	}}
	m := NewMergingIterator(a, b)
	m.Seek(keys.EncodeUint64(2))
	if !m.Valid() || keys.DecodeUint64(m.Key()) != 3 {
		t.Fatal("Seek(2) should land on 3")
	}
	m.Seek(keys.EncodeUint64(6))
	if m.Valid() {
		t.Fatal("Seek past end should invalidate")
	}
	empty := NewMergingIterator()
	empty.SeekToFirst()
	if empty.Valid() {
		t.Fatal("empty merge should be invalid")
	}
}

func TestVersionInvariantsRandomized(t *testing.T) {
	// Random flushes and compactions must never produce an invalid tree.
	s := openTestStore(t, Options{L0CompactionTrigger: 3, BaseLevelBytes: 64 << 10, TargetFileSize: 16 << 10})
	rng := rand.New(rand.NewSource(3))
	seq := uint64(1)
	for round := 0; round < 20; round++ {
		var entries []memEntry
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			seq++
			entries = append(entries, memEntry{
				key:   keys.EncodeUint64(rng.Uint64() % 2000),
				seq:   seq,
				kind:  keys.KindSet,
				value: bytes.Repeat([]byte("v"), 100),
			})
		}
		// Dedup (key,seq) collisions are impossible (seq increments), but
		// duplicate keys within the batch must be collapsed to newest.
		entries = sortedEntries(entries)
		dedup := entries[:0]
		for i, e := range entries {
			if i > 0 && keys.Equal(entries[i-1].key, e.key) {
				continue
			}
			dedup = append(dedup, e)
		}
		if _, err := s.Flush(&memIter{entries: dedup}, uint64(round+2), seq); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitForCompactions()
	err := s.vs.current.Load().checkInvariants()
	if err != nil {
		t.Fatal(err)
	}
}

func TestTableCacheSharing(t *testing.T) {
	dir := t.TempDir()
	c := newTableCache(dir, 0, sstable.ReaderOptions{})
	defer c.Close()
	w, _ := sstable.NewWriter(TableFileName(dir, 1), sstable.WriterOptions{})
	w.Add([]byte("k"), 1, keys.KindSet, []byte("v"))
	w.Finish()

	r1, h1, err := c.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	r2, h2, _ := c.Get(1)
	h2.Release()
	if r1 != r2 {
		t.Fatal("cache should return the same reader")
	}
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d", c.Len())
	}
	c.Evict(1)
	if c.Len() != 0 {
		t.Fatal("evict did not remove entry")
	}
	if _, _, err := c.Get(99); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestTableCacheFDBudget documents why the default capacity is what it
// is: every cached reader holds exactly one file descriptor, so the
// cache's capacity IS the store's steady-state fd budget for tables.
// The common soft rlimit is 1024; DefaultTableCacheCapacity must leave
// comfortable headroom for WAL segments, the manifest, sockets and
// whatever else the embedding process has open. The capacity bound is what
// turns "open tables" from O(total files ever created) — the old
// unbounded map, a slow fd leak on long-lived stores with many small
// tables — into a constant.
func TestTableCacheFDBudget(t *testing.T) {
	if DefaultTableCacheCapacity >= 1024/2 {
		t.Fatalf("default table-cache capacity %d eats more than half a 1024 soft fd rlimit",
			DefaultTableCacheCapacity)
	}

	// The bound is enforced: open far more tables than the capacity and
	// check the resident count (== open fds held by the cache) stays at
	// or below it once handles are released.
	dir := t.TempDir()
	const capacity = 4
	c := newTableCache(dir, capacity, sstable.ReaderOptions{})
	defer c.Close()
	for i := uint64(1); i <= 32; i++ {
		w, err := sstable.NewWriter(TableFileName(dir, i), sstable.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Add([]byte{byte(i)}, i, keys.KindSet, []byte("v"))
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		_, h, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("table cache holds %d readers, capacity %d", got, capacity)
	}

	// A pinned reader survives eviction pressure and stays usable — the
	// fd is not closed under a live iterator.
	rPinned, hPinned, err := c.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(2); i <= 32; i++ {
		_, h, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if _, _, _, ok, err := rPinned.Get([]byte{1}); err != nil || !ok {
		t.Fatalf("pinned reader unusable after churn: ok=%v err=%v", ok, err)
	}
	hPinned.Release()
}

// skiplistIter flushes a skiplist memtable, as the stores above this
// package do.
type skiplistIter struct{ *skiplist.Iterator }

func (s skiplistIter) Seq() uint64     { return s.Entry().Seq }
func (s skiplistIter) Kind() keys.Kind { return keys.KindSet }
func (s skiplistIter) Value() []byte   { return s.Entry().Value }
func (s skiplistIter) Err() error      { return nil }

// TestBaseLevelHoldsOneL0Compaction: with L1 sized by SizeBaseLevel, the
// compaction of L0CompactionTrigger full memtables leaves L1 within its
// target, so no L1→L2 work follows it. Memtables are skiplists filled to
// the target as their ApproxBytes counts it, with the benchmark's 8-byte
// keys and 256-byte values.
func TestBaseLevelHoldsOneL0Compaction(t *testing.T) {
	const memtableBytes = 256 << 10
	opts := Options{}
	opts.SizeBaseLevel(memtableBytes)
	if opts.BaseLevelBytes != DefaultL0CompactionTrigger*memtableBytes {
		t.Fatalf("BaseLevelBytes = %d, want %d", opts.BaseLevelBytes, DefaultL0CompactionTrigger*memtableBytes)
	}
	s := openTestStore(t, opts)
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	for f := 0; f < DefaultL0CompactionTrigger; f++ {
		l := skiplist.New()
		for l.ApproxBytes() < memtableBytes {
			seq++
			l.Insert(keys.EncodeUint64(rng.Uint64()), &skiplist.Entry{Value: make([]byte, 256), Seq: seq})
		}
		if _, err := s.Flush(skiplistIter{l.NewIterator()}, uint64(f+2), seq); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitForCompactions()
	if s.NumLevelFiles(0) != 0 || s.NumLevelFiles(1) == 0 || s.NumLevelFiles(2) != 0 {
		t.Fatalf("files per level L0 %d, L1 %d, L2 %d: want one L0→L1 compaction and nothing deeper",
			s.NumLevelFiles(0), s.NumLevelFiles(1), s.NumLevelFiles(2))
	}
	v := s.PinVersion()
	defer s.ReleaseVersion(v)
	if score := float64(v.SizeBytes(1)) / float64(s.maxBytesForLevel(1)); score > 1 {
		t.Fatalf("L1 holds %d bytes, score %.2f over its %d-byte target", v.SizeBytes(1), score, s.maxBytesForLevel(1))
	}
}

// returnsWithin fails the test if f has not returned after a few seconds;
// a test that holds a lock f must not take calls it this way.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked on a lock the test holds", what)
	}
}

// TestRowHitTakesNoLock: a Get of a disk-resident key whose row is cached
// returns while the test holds the version set's mutex and every stripe
// lock of the row cache — the hit path takes neither.
func TestRowHitTakesNoLock(t *testing.T) {
	s := openTestStore(t, Options{})
	var entries []memEntry
	for i := 0; i < 100; i++ {
		entries = append(entries, memEntry{key: keys.EncodeUint64(uint64(i)), seq: uint64(i + 1), kind: keys.KindSet, value: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := s.Flush(&memIter{entries: entries}, 2, 100); err != nil {
		t.Fatal(err)
	}
	key := keys.EncodeUint64(42)
	if _, _, _, ok, err := s.Get(key); !ok || err != nil { // leaves the row in the cache
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	before := s.bcache.Stats()

	var v []byte
	var ok bool
	func() {
		s.vs.mu.Lock()
		defer s.vs.mu.Unlock()
		defer s.bcache.LockForTesting()()
		returnsWithin(t, "a row-cache hit", func() { v, _, _, ok, _ = s.Get(key) })
	}()
	if !ok || string(v) != "v42" {
		t.Fatalf("Get = %q ok=%v", v, ok)
	}
	if after := s.bcache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("the Get was not a row hit: %+v then %+v", before, after)
	}
}

// TestNeedsStallTakesNoLock: the write path's L0 check reads the published
// version, so a writer never waits behind the version set's mutex (which a
// manifest fsync holds).
func TestNeedsStallTakesNoLock(t *testing.T) {
	s := openTestStore(t, Options{L0StallThreshold: 1})
	entries := []memEntry{{key: []byte("k"), seq: 1, kind: keys.KindSet, value: []byte("v")}}
	if _, err := s.Flush(&memIter{entries: entries}, 2, 1); err != nil {
		t.Fatal(err)
	}
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	var stall bool
	var files int
	returnsWithin(t, "NeedsStall", func() { stall, files = s.NeedsStall(), s.NumLevelFiles(0) })
	if !stall || files != 1 {
		t.Fatalf("one L0 file against a threshold of 1: NeedsStall=%v, NumLevelFiles(0)=%d", stall, files)
	}
}
