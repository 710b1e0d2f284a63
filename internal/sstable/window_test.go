package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"flodb/internal/cache"
	"flodb/internal/keys"
)

// versionedEntries returns n entries over ~n/1.2 user keys (every fifth key
// has two versions, newest first) with values of valueLen bytes.
func versionedEntries(n, valueLen int, rng *rand.Rand) []testEntry {
	out := make([]testEntry, 0, n)
	for k := uint64(0); len(out) < n; k++ {
		versions := 1
		if k%5 == 0 {
			versions = 2
		}
		for v := versions; v > 0 && len(out) < n; v-- {
			val := make([]byte, valueLen)
			rng.Read(val)
			kind := keys.KindSet
			if rng.Intn(16) == 0 {
				kind = keys.KindDelete
			}
			// Even user keys only, so seeks also land between keys.
			out = append(out, testEntry{key: keys.EncodeUint64(2 * k), seq: 10*k + uint64(v), kind: kind, value: val})
		}
	}
	return out
}

// checkAt compares the iterator with position pos of the sorted model
// (pos == len(entries) is the end).
func checkAt(t *testing.T, what string, it *Iterator, entries []testEntry, pos int) {
	t.Helper()
	if err := it.Err(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if pos >= len(entries) {
		if it.Valid() {
			t.Fatalf("%s: valid at %x, model is at the end", what, it.Key())
		}
		return
	}
	e := entries[pos]
	if !it.Valid() {
		t.Fatalf("%s: invalid, model is at entry %d (%x@%d)", what, pos, e.key, e.seq)
	}
	if !bytes.Equal(it.Key(), e.key) || it.Seq() != e.seq || it.Kind() != e.kind || !bytes.Equal(it.Value(), e.value) {
		t.Fatalf("%s: at %x@%d, model entry %d is %x@%d", what, it.Key(), it.Seq(), pos, e.key, e.seq)
	}
}

// TestWindowIteratorMatchesModel drives random Seek / Next / SeekToFirst
// interleavings — and Reset between two tables, so a stale window would
// show — against a sorted model, over block sizes below, at and above the
// read window and with the block cache absent, useless and all-holding.
func TestWindowIteratorMatchesModel(t *testing.T) {
	shapes := []struct {
		name                string
		blockSize, n, value int
	}{
		{"64B-blocks", 64, 3000, 24},             // one entry per block
		{"4KiB-blocks", 4 << 10, 6001, 90},       // readahead grows to maxWindow
		{"300KiB-blocks", 300 << 10, 1100, 1000}, // every block larger than maxWindow
	}
	caches := []struct {
		name  string
		bytes int64 // < 0: no cache
	}{{"nocache", -1}, {"1B-cache", 1}, {"big-cache", 64 << 20}}

	for _, sh := range shapes {
		for _, cs := range caches {
			t.Run(sh.name+"/"+cs.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(sh.blockSize) + cs.bytes))
				dir := t.TempDir()
				var bc *cache.Cache
				if cs.bytes >= 0 {
					bc = cache.New(cs.bytes)
				}
				var (
					tables  [2][]testEntry
					readers [2]*Reader
				)
				for i := range tables {
					// Different lengths: the two tables' blocks never line up,
					// and the final block of each is short.
					tables[i] = versionedEntries(sh.n-i*sh.n/3, sh.value, rng)
					path := filepath.Join(dir, fmt.Sprintf("%d.sst", i))
					buildTable(t, path, WriterOptions{BlockSize: sh.blockSize}, tables[i])
					r, err := OpenOptions(path, ReaderOptions{BlockCache: bc, CacheID: uint64(i + 1)})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					readers[i] = r
				}
				// Several blocks and, where a block holds several entries, a
				// short final one.
				if idx := readers[0].index; len(idx) < 3 || sh.blockSize > 64 && int(idx[len(idx)-1].length) >= sh.blockSize {
					t.Fatalf("table shape: %d blocks, final block %d bytes", len(idx), idx[len(idx)-1].length)
				}

				cur := 0
				entries := tables[cur]
				it := readers[cur].NewIterator()
				pos := len(entries) // unpositioned counts as the end
				for op := 0; op < 4000; op++ {
					switch c := rng.Intn(100); {
					case c < 2:
						cur = 1 - cur
						entries = tables[cur]
						it.Reset(readers[cur])
						pos = len(entries)
						checkAt(t, "Reset", it, entries, pos)
					case c < 5:
						it.SeekToFirst()
						pos = 0
						checkAt(t, "SeekToFirst", it, entries, pos)
					case c < 20:
						// Up to one key past the end; odd targets are absent.
						target := keys.EncodeUint64(uint64(rng.Intn(2*len(entries) + 4)))
						if bc != nil && rng.Intn(2) == 0 {
							readers[cur].Get(target) // a point read fills the cache
						}
						it.Seek(target)
						pos = sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].key, target) >= 0 })
						checkAt(t, fmt.Sprintf("Seek(%x)", target), it, entries, pos)
					default:
						// Runs of Next, long enough to cross many blocks.
						for n := rng.Intn(400); n > 0 && pos < len(entries); n-- {
							it.Next()
							pos++
							checkAt(t, "Next", it, entries, pos)
						}
					}
				}
			})
		}
	}
}

// TestReadaheadCorruptionSurfaces flips a byte in a block that only a
// readahead reads: the entries before it are served, then the iterator
// turns invalid with ErrCorrupt — a block is verified when it is entered,
// wherever its bytes came from.
func TestReadaheadCorruptionSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	entries := seqEntries(4000)
	buildTable(t, path, WriterOptions{BlockSize: 1 << 10}, entries)
	clean, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	e := clean.index[victim]
	if e.off+uint64(e.length) > minWindow {
		t.Fatal("the first readahead would not reach the victim block")
	}
	before := 0 // entries in the blocks ahead of the victim
	it := clean.NewIterator()
	for it.SeekToFirst(); it.blockIdx < victim; it.Next() {
		before++
	}
	clean.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[e.off+uint64(e.length)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("footer and index are intact: %v", err)
	}
	defer r.Close()
	it = r.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		checkAt(t, "before the flipped block", it, entries, n)
		n++
	}
	if n != before {
		t.Fatalf("served %d entries, %d precede the flipped block", n, before)
	}
	if it.Valid() || !errors.Is(it.Err(), ErrCorrupt) {
		t.Fatalf("Valid=%v Err=%v, want invalid with ErrCorrupt", it.Valid(), it.Err())
	}
	// A seek past the damage works again, and clears the error.
	it.Seek(entries[len(entries)-1].key)
	checkAt(t, "seek past the flipped block", it, entries, len(entries)-1)
}

// TestWindowSurvivesResetWithoutAllocating is the layer's own budget: a
// recycled iterator seeks and walks hundreds of blocks with no allocation
// at all, and a pass long enough to borrow a big window leaves none with
// the iterator after Reset.
func TestWindowSurvivesResetWithoutAllocating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	entries := seqEntries(40000)
	buildTable(t, path, WriterOptions{BlockSize: 512}, entries)
	r, err := OpenOptions(path, ReaderOptions{BlockCache: cache.New(1), CacheID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.index) < 1000 {
		t.Fatalf("only %d blocks", len(r.index))
	}

	var it Iterator
	walk := func(from, steps int) {
		it.Reset(r)
		it.Seek(entries[from].key)
		for i := 0; i < steps && it.Valid(); i++ {
			it.Next()
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
	walk(0, 3000) // warm: the window grows to what this walk needs, once
	if c := cap(it.win); c == 0 || c > retainWindow {
		t.Fatalf("window after a 3000-entry walk: cap %d", c)
	}
	from := 0
	if a := testing.AllocsPerRun(50, func() { from = (from + 7919) % 30000; walk(from, 3000) }); a != 0 {
		t.Fatalf("seek + 3000 entries (~100 blocks) on a recycled iterator: %.1f allocations", a)
	}

	walk(0, len(entries))
	if cap(it.win) != maxWindow {
		t.Fatalf("window after a full pass: cap %d, want the borrowed %d", cap(it.win), maxWindow)
	}
	it.Reset(nil)
	if cap(it.win) > retainWindow || cap(it.win) != cap(it.own) {
		t.Fatalf("Reset kept a %d-byte window (own buffer %d)", cap(it.win), cap(it.own))
	}
}
