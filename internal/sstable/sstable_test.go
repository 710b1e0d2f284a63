package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"flodb/internal/keys"
)

type testEntry struct {
	key   []byte
	seq   uint64
	kind  keys.Kind
	value []byte
}

func buildTable(t testing.TB, path string, opts WriterOptions, entries []testEntry) Meta {
	t.Helper()
	w, err := NewWriter(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e.key, e.seq, e.kind, e.value); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func seqEntries(n int) []testEntry {
	out := make([]testEntry, n)
	for i := range out {
		out[i] = testEntry{
			key:   keys.EncodeUint64(uint64(i)),
			seq:   uint64(1000 + i),
			kind:  keys.KindSet,
			value: []byte(fmt.Sprintf("value-%06d", i)),
		}
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	entries := seqEntries(1000)
	meta := buildTable(t, path, WriterOptions{BlockSize: 512}, entries)

	if meta.Count != 1000 {
		t.Fatalf("Count = %d", meta.Count)
	}
	if !bytes.Equal(meta.Smallest, entries[0].key) || !bytes.Equal(meta.Largest, entries[999].key) {
		t.Fatalf("bounds = %x..%x", meta.Smallest, meta.Largest)
	}
	if meta.MinSeq != 1000 || meta.MaxSeq != 1999 {
		t.Fatalf("seq bounds = %d..%d", meta.MinSeq, meta.MaxSeq)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 1000 {
		t.Fatalf("reader Count = %d", r.Count())
	}
	for _, e := range entries {
		v, seq, kind, ok, err := r.Get(e.key)
		if err != nil || !ok {
			t.Fatalf("Get(%x): ok=%v err=%v", e.key, ok, err)
		}
		if !bytes.Equal(v, e.value) || seq != e.seq || kind != e.kind {
			t.Fatalf("Get(%x) = %q@%d", e.key, v, seq)
		}
	}
}

func TestGetMisses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, []testEntry{
		{key: keys.EncodeUint64(10), seq: 1, kind: keys.KindSet, value: []byte("v")},
		{key: keys.EncodeUint64(20), seq: 2, kind: keys.KindSet, value: []byte("v")},
	})
	r, _ := Open(path)
	defer r.Close()
	for _, k := range []uint64{0, 15, 9999} {
		if _, _, _, ok, err := r.Get(keys.EncodeUint64(k)); ok || err != nil {
			t.Fatalf("Get(%d): ok=%v err=%v", k, ok, err)
		}
	}
}

func TestMultiVersionNewestFirst(t *testing.T) {
	// Multiple versions of one user key: Get must return the newest.
	path := filepath.Join(t.TempDir(), "t.sst")
	k := []byte("key")
	buildTable(t, path, WriterOptions{}, []testEntry{
		{key: k, seq: 30, kind: keys.KindSet, value: []byte("newest")},
		{key: k, seq: 20, kind: keys.KindDelete, value: nil},
		{key: k, seq: 10, kind: keys.KindSet, value: []byte("oldest")},
	})
	r, _ := Open(path)
	defer r.Close()
	v, seq, kind, ok, err := r.Get(k)
	if err != nil || !ok || seq != 30 || kind != keys.KindSet || string(v) != "newest" {
		t.Fatalf("Get = %q@%d kind=%v ok=%v err=%v", v, seq, kind, ok, err)
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "t.sst"), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add([]byte("b"), 1, keys.KindSet, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("a"), 1, keys.KindSet, nil); err == nil {
		t.Fatal("descending key accepted")
	}
	if err := w.Add([]byte("b"), 1, keys.KindSet, nil); err == nil {
		t.Fatal("duplicate (key,seq) accepted")
	}
	if err := w.Add([]byte("b"), 2, keys.KindSet, nil); err == nil {
		t.Fatal("ascending seq within user key accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	meta := buildTable(t, path, WriterOptions{}, nil)
	if meta.Count != 0 {
		t.Fatalf("Count = %d", meta.Count)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, _, ok, _ := r.Get([]byte("any")); ok {
		t.Fatal("empty table returned a value")
	}
	it := r.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator valid on empty table")
	}
}

func TestIteratorFullWalk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	entries := seqEntries(2500)
	buildTable(t, path, WriterOptions{BlockSize: 256}, entries)
	r, _ := Open(path)
	defer r.Close()
	it := r.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), entries[i].key) || it.Seq() != entries[i].seq || !bytes.Equal(it.Value(), entries[i].value) {
			t.Fatalf("entry %d mismatch", i)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("walked %d entries", i)
	}
}

func TestIteratorSeek(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	var entries []testEntry
	for i := 0; i < 100; i++ { // even keys
		entries = append(entries, testEntry{
			key: keys.EncodeUint64(uint64(i * 2)), seq: uint64(i), kind: keys.KindSet, value: []byte("v"),
		})
	}
	buildTable(t, path, WriterOptions{BlockSize: 128}, entries)
	r, _ := Open(path)
	defer r.Close()
	it := r.NewIterator()

	it.Seek(keys.EncodeUint64(50))
	if !it.Valid() || keys.DecodeUint64(it.Key()) != 50 {
		t.Fatal("Seek(50) exact hit failed")
	}
	it.Seek(keys.EncodeUint64(51))
	if !it.Valid() || keys.DecodeUint64(it.Key()) != 52 {
		t.Fatal("Seek(51) between keys failed")
	}
	it.Seek(keys.EncodeUint64(0))
	if !it.Valid() || keys.DecodeUint64(it.Key()) != 0 {
		t.Fatal("Seek(0) failed")
	}
	it.Seek(keys.EncodeUint64(1_000_000))
	if it.Valid() {
		t.Fatal("Seek past end should invalidate")
	}
}

func TestBloomFilterEffectiveness(t *testing.T) {
	f := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		f.add(keys.Hash(keys.EncodeUint64(uint64(i))))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(keys.Hash(keys.EncodeUint64(uint64(i)))) {
			t.Fatalf("false negative for %d", i)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain(keys.Hash(keys.EncodeUint64(uint64(1_000_000 + i)))) {
			fp++
		}
	}
	// 10 bits/key should be ~1%; allow up to 5%.
	if fp > probes/20 {
		t.Fatalf("false positive rate too high: %d/%d", fp, probes)
	}
}

// TestWriterFilterMatchesKeyByKey: the filter a Writer stores — built from
// the hashes it kept as entries arrived — is byte for byte the filter of
// the same entries' keys added one by one, versions of one key included.
func TestWriterFilterMatchesKeyByKey(t *testing.T) {
	var entries []testEntry
	for i := 0; i < 3000; i++ {
		e := testEntry{key: keys.EncodeUint64(uint64(i * 3)), seq: uint64(10 + i), kind: keys.KindSet, value: []byte("v")}
		if i%5 == 0 {
			older := e
			older.seq, older.kind, older.value = 1, keys.KindDelete, nil
			entries = append(entries, e, older)
			continue
		}
		entries = append(entries, e)
	}
	for _, bits := range []int{0, 4, 16} {
		path := filepath.Join(t.TempDir(), "t.sst")
		buildTable(t, path, WriterOptions{BloomBitsPerKey: bits}, entries)
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want := newBloom(len(entries), bits)
		for _, e := range entries {
			want.add(keys.Hash(e.key))
		}
		if got := r.Filter(); got == nil || !bytes.Equal(got.encode(), want.encode()) {
			t.Fatalf("%d bits/key: the writer's filter differs from the key-by-key one", bits)
		}
		r.Close()
	}
}

// TestWriterAddAllocatesNothing: Add copies a key into the block and keeps
// its hash, so what a table's entries allocate — the block and hash slices
// growing, one index key per block — amortizes to nothing per entry.
func TestWriterAddAllocatesNothing(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "t.sst"), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	value := bytes.Repeat([]byte{'v'}, 100)
	key := make([]byte, 0, 8)
	i := uint64(0)
	allocs := testing.AllocsPerRun(20000, func() {
		i++
		key = keys.AppendUint64(key[:0], i)
		if err := w.Add(key, i, keys.KindSet, value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Writer.Add: %.0f allocations per entry, want 0", allocs)
	}
}

func TestBloomRoundTrip(t *testing.T) {
	f := newBloom(100, 10)
	for i := 0; i < 100; i++ {
		f.add(keys.Hash(keys.EncodeUint64(uint64(i))))
	}
	g, err := decodeBloom(f.encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !g.MayContain(keys.Hash(keys.EncodeUint64(uint64(i)))) {
			t.Fatal("decoded bloom lost a key")
		}
	}
}

func TestNoBloomOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{BloomBitsPerKey: -1}, seqEntries(10))
	r, _ := Open(path)
	defer r.Close()
	if r.Filter() != nil {
		t.Fatal("a table written without a filter has one")
	}
	if _, _, _, ok, _ := r.Get(keys.EncodeUint64(5)); !ok {
		t.Fatal("Get without bloom failed")
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{BlockSize: 128}, seqEntries(100))

	// Flip a byte in the first data block.
	data, _ := os.ReadFile(path)
	corrupt := append([]byte(nil), data...)
	corrupt[10] ^= 0xff
	os.WriteFile(path, corrupt, 0o644)
	r, err := Open(path) // footer+index still fine
	if err != nil {
		t.Fatalf("open should succeed, footer is intact: %v", err)
	}
	_, _, _, _, err = r.Get(keys.EncodeUint64(0))
	if err == nil {
		t.Fatal("corrupt block not detected on Get")
	}
	r.Close()

	// Truncate the footer entirely.
	os.WriteFile(path, data[:len(data)-footerSize+4], 0o644)
	if _, err := Open(path); err == nil {
		t.Fatal("bad footer accepted")
	}

	// Corrupt the magic.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	os.WriteFile(path, bad, 0o644)
	if _, err := Open(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestAddAfterFinishRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	w, _ := NewWriter(path, WriterOptions{})
	w.Add([]byte("a"), 1, keys.KindSet, nil)
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("b"), 2, keys.KindSet, nil); err == nil {
		t.Fatal("Add after Finish accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
}

func TestAbortRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	w, _ := NewWriter(path, WriterOptions{})
	w.Add([]byte("a"), 1, keys.KindSet, []byte("v"))
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("aborted file still exists")
	}
}

func TestTombstoneCounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	meta := buildTable(t, path, WriterOptions{}, []testEntry{
		{key: []byte("a"), seq: 1, kind: keys.KindSet, value: []byte("v")},
		{key: []byte("b"), seq: 2, kind: keys.KindDelete},
		{key: []byte("c"), seq: 3, kind: keys.KindDelete},
	})
	if meta.TombstoneEntries != 2 {
		t.Fatalf("TombstoneEntries = %d", meta.TombstoneEntries)
	}
}

func TestPropertyRandomTables(t *testing.T) {
	dir := t.TempDir()
	n := 0
	err := quick.Check(func(seed int64, sizeRaw uint16) bool {
		n++
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeRaw%300) + 1
		userKeys := make(map[uint64]int) // key -> index of newest entry
		var entries []testEntry
		for i := 0; i < size; i++ {
			k := rng.Uint64() % 128
			if _, dup := userKeys[k]; dup {
				continue
			}
			userKeys[k] = 0
			kind := keys.KindSet
			if rng.Intn(5) == 0 {
				kind = keys.KindDelete
			}
			val := make([]byte, rng.Intn(100))
			rng.Read(val)
			entries = append(entries, testEntry{key: keys.EncodeUint64(k), seq: uint64(i + 1), kind: kind, value: val})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		path := filepath.Join(dir, fmt.Sprintf("q%d.sst", n))
		w, err := NewWriter(path, WriterOptions{BlockSize: 64 + rng.Intn(512)})
		if err != nil {
			return false
		}
		for _, e := range entries {
			if err := w.Add(e.key, e.seq, e.kind, e.value); err != nil {
				return false
			}
		}
		if _, err := w.Finish(); err != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		for _, e := range entries {
			v, seq, kind, ok, err := r.Get(e.key)
			if err != nil || !ok || seq != e.seq || kind != e.kind || !bytes.Equal(v, e.value) {
				return false
			}
		}
		// Full iteration must return exactly the inserted sequence.
		it := r.NewIterator()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(entries) || !bytes.Equal(it.Key(), entries[i].key) {
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(entries)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestConcurrentReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	entries := seqEntries(5000)
	buildTable(t, path, WriterOptions{}, entries)
	r, _ := Open(path)
	defer r.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				j := rng.Intn(len(entries))
				v, _, _, ok, err := r.Get(entries[j].key)
				if err != nil || !ok || !bytes.Equal(v, entries[j].value) {
					done <- fmt.Errorf("g%d: bad read at %d: ok=%v err=%v", g, j, ok, err)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkTableGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.sst")
	w, _ := NewWriter(path, WriterOptions{})
	const n = 100_000
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < n; i++ {
		w.Add(keys.EncodeUint64(uint64(i)), uint64(i), keys.KindSet, val)
	}
	w.Finish()
	r, _ := Open(path)
	defer r.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			r.Get(keys.EncodeUint64(rng.Uint64() % n))
		}
	})
}

func BenchmarkTableWrite(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 256)
	b.SetBytes(int64(8 + len(val)))
	path := filepath.Join(b.TempDir(), "bench.sst")
	w, _ := NewWriter(path, WriterOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(keys.EncodeUint64(uint64(i)), uint64(i), keys.KindSet, val)
	}
	b.StopTimer()
	w.Finish()
}
