package sstable

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"flodb/internal/cache"
	"flodb/internal/keys"
)

// The fuzz targets cover every parser that reads bytes a disk can hand
// back wrong: the footer and the ranges it names (FuzzReader), the index
// (FuzzIndex), the filter (FuzzBloom) and the in-place data block
// (FuzzBlock). The three block parsers sit behind a CRC a mutated input
// practically never satisfies, so their targets take the payload and seal
// it themselves. The contract everywhere: an error or a valid walk — never
// a panic, an out-of-range slice, or memory in proportion to a length the
// input merely claims.

// memFile serves a table image from memory.
type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

func openImage(img []byte) (*Reader, error) {
	r := &Reader{f: memFile{bytes.NewReader(img)}, size: uint64(len(img))}
	return r, r.loadTail()
}

// sameGet reads key through plain, which has no row cache, and twice
// through cached (the second read finds the row the first one left, if the
// first found one) and requires the three answers to agree.
func sameGet(t *testing.T, plain, cached *Reader, key []byte) {
	t.Helper()
	wv, wseq, wkind, wok, werr := plain.Get(key)
	for pass := 0; pass < 2; pass++ {
		v, seq, kind, ok, err := cached.Get(key)
		if ok != wok || (err == nil) != (werr == nil) || seq != wseq || kind != wkind || !bytes.Equal(v, wv) {
			t.Fatalf("Get(%x) pass %d with the row cache: %x@%d %v ok=%v err=%v; without: %x@%d %v ok=%v err=%v",
				key, pass, v, seq, kind, ok, err, wv, wseq, wkind, wok, werr)
		}
	}
}

// seedImages returns Writer output in a few shapes: multi-block with
// versions and tombstones, single-entry blocks, no filter, empty. They are
// small because the engine minimizes every input it finds interesting.
func seedImages(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var out [][]byte
	for i, c := range []struct {
		opts    WriterOptions
		entries []testEntry
	}{
		{WriterOptions{BlockSize: 256}, versionedEntries(60, 20, rng)},
		{WriterOptions{BlockSize: 64}, versionedEntries(12, 70, rng)},
		{WriterOptions{BloomBitsPerKey: -1}, seqEntries(10)},
		{WriterOptions{}, nil},
	} {
		path := filepath.Join(tb.TempDir(), string(rune('a'+i))+".sst")
		buildTable(tb, path, c.opts, c.entries)
		img, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, img)
	}
	return out
}

// allocatedBy returns the heap bytes fn allocated (plus whatever other
// goroutines did meanwhile: callers leave slack).
func allocatedBy(fn func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	fn()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// allocSlack is what a parse may allocate whatever the input: error values,
// one read window, the fuzzing engine's own traffic.
const allocSlack = 2 << 20

func sealed(payload []byte) []byte { return appendChecksum(bytes.Clone(payload)) }

func FuzzReader(f *testing.F) {
	for _, img := range seedImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		used := allocatedBy(func() {
			r, err := openImage(img)
			if err != nil {
				return
			}
			// Every entry is at least 4 bytes, so a walk longer than the
			// image is a loop.
			it := r.NewIterator()
			n := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if n++; n > len(img) {
					t.Fatalf("walked %d entries of a %d-byte image", n, len(img))
				}
				if n%16 == 1 {
					r.Get(it.Key())
					var probe Iterator
					probe.Reset(r)
					probe.Seek(it.Key())
				}
			}
			it.Reset(nil)
		})
		if limit := 64*uint64(len(img)) + allocSlack; used > limit {
			t.Fatalf("a %d-byte image cost %d bytes of allocation", len(img), used)
		}

		// Point reads of every entry's key and of its two neighbours, with
		// the row cache and without: a Get costs a row, never a block, so
		// the budget is per Get and not per byte the image claims.
		plain, err := openImage(img)
		if err != nil {
			return
		}
		cached, _ := openImage(img)
		cached.bcache, cached.cacheID = cache.New(1<<20), 1
		gets := 0
		used = allocatedBy(func() {
			it := plain.NewIterator()
			for it.SeekToFirst(); it.Valid() && gets < 3*len(img); it.Next() {
				k := bytes.Clone(it.Key())
				sameGet(t, plain, cached, k)
				sameGet(t, plain, cached, keys.Successor(k))
				if len(k) > 0 {
					k[len(k)-1]--
					sameGet(t, plain, cached, k)
				}
				gets += 9
			}
		})
		if limit := uint64(gets)*(1<<10) + 8*uint64(len(img)) + allocSlack; used > limit {
			t.Fatalf("%d Gets on a %d-byte image cost %d bytes of allocation", gets, len(img), used)
		}
	})
}

func FuzzIndex(f *testing.F) {
	for _, img := range seedImages(f) {
		ftr, err := decodeFooter(img[len(img)-footerSize:])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img[ftr.indexOff:][:ftr.indexLen-4], uint64(len(img)))
	}
	f.Fuzz(func(t *testing.T, payload []byte, fileSize uint64) {
		var entries []indexEntry
		var err error
		used := allocatedBy(func() { entries, err = decodeIndex(sealed(payload), fileSize) })
		if limit := 64*uint64(len(payload)) + allocSlack; used > limit {
			t.Fatalf("a %d-byte index cost %d bytes of allocation", len(payload), used)
		}
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.off > fileSize || uint64(e.length) > fileSize-e.off {
				t.Fatalf("block [%d,+%d) accepted in a file of %d bytes", e.off, e.length, fileSize)
			}
		}
	})
}

func FuzzBloom(f *testing.F) {
	for _, img := range seedImages(f) {
		ftr, err := decodeFooter(img[len(img)-footerSize:])
		if err != nil {
			f.Fatal(err)
		}
		if ftr.filterLen > 0 {
			f.Add(img[ftr.filterOff:][:ftr.filterLen-4], []byte("key"))
		}
	}
	f.Fuzz(func(t *testing.T, payload, key []byte) {
		if b, err := decodeBloom(sealed(payload)); err == nil {
			b.MayContain(keys.Hash(key))
		}
	})
}

func FuzzBlock(f *testing.F) {
	for _, img := range seedImages(f) {
		r, err := openImage(img)
		if err != nil {
			f.Fatal(err)
		}
		for i, e := range r.index {
			if i%4 == 0 {
				f.Add(img[e.off:][:e.length-4], keys.EncodeUint64(uint64(i)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, payload, target []byte) {
		raw := sealed(payload)
		b, err := parseBlock(raw)
		if err != nil {
			return
		}
		if b.len() > len(payload)/4 {
			t.Fatalf("%d entries claimed by %d bytes", b.len(), len(payload))
		}
		for i := 0; i < b.len(); i++ {
			k, _, _, v, err := b.entryAt(i)
			if err == nil && len(k)+len(v) > len(b.entries) {
				t.Fatalf("entry %d: %d key + %d value bytes out of %d", i, len(k), len(v), len(b.entries))
			}
		}
		if i, err := b.seekInBlock(target); err == nil && (i < 0 || i > b.len()) {
			t.Fatalf("seekInBlock = %d of %d", i, b.len())
		}
		if _, _, _, _, err := b.entryAt(b.len()); err == nil {
			t.Fatal("entryAt past the end succeeded")
		}
	})
}
