package skiplist

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"flodb/internal/keys"
)

// TestChunkBoundaryExactFit fills a chunk to its last byte: the next
// allocation must come from a new, published chunk, never from the offset
// one past the full chunk's end (which names the next slot).
func TestChunkBoundaryExactFit(t *testing.T) {
	var a arena
	a.init()
	if got := a.alloc(chunkSize/2 - 4); got != 1<<chunkShift {
		t.Fatalf("first allocation at %#x, want chunk 1", got)
	}
	a.alloc(chunkSize/2 - 4)
	if got := a.alloc(8); got != 2<<chunkShift-8 {
		t.Fatalf("exact-fit allocation at %#x, want %#x", got, 2<<chunkShift-8)
	}
	if b := a.bump.Load(); b != 1<<32|chunkSize {
		t.Fatalf("bump %#x, want chunk 1 full", b)
	}
	got := a.alloc(4)
	if got != 2<<chunkShift || a.chunks[2] == nil || a.used != 3 {
		t.Fatalf("allocation after a full chunk at %#x (chunk published %v, used %d)", got, a.chunks[2] != nil, a.used)
	}

	// A key of half a chunk or more gets chunks of its own, contiguous in
	// both offsets and memory, and leaves the bump chunk alone.
	big := a.alloc(chunkSize + 10)
	if big != 3<<chunkShift || a.used != 5 {
		t.Fatalf("oversized allocation at %#x, used %d", big, a.used)
	}
	if a.at(big+chunkSize+5) != unsafe.Add(a.at(big), chunkSize+5) {
		t.Fatal("an oversized allocation is not contiguous across its slots")
	}
	if next := a.alloc(4); next != 2<<chunkShift+4 {
		t.Fatalf("small allocation after an oversized one at %#x, want the bump chunk", next)
	}
}

// TestChunkConcurrentAllocationsDisjoint races allocators through many
// chunk switches (small sizes, so chunks often fill to the last byte) and
// checks that allocations never overlap and never leave their chunk.
func TestChunkConcurrentAllocationsDisjoint(t *testing.T) {
	var a arena
	a.init()
	const workers, perWorker = 4, 1000
	sizes := []int{4, 60, 1020, 4096, 16380, chunkSize / 2}
	var wg sync.WaitGroup
	type span struct{ off, n uint32 }
	spans := make([][]span, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				n := sizes[rng.Intn(len(sizes)-1)] // mostly small
				if i%500 == 0 {
					n = sizes[len(sizes)-1]
				}
				off := a.alloc(n)
				p := unsafe.Slice((*byte)(a.at(off)), n)
				p[0], p[n-1] = byte(w+1), byte(w+1)
				spans[w] = append(spans[w], span{off, uint32(n)})
			}
		}(w)
	}
	wg.Wait()
	if a.used < 10 {
		t.Fatalf("only %d chunk slots used; the test crossed too few boundaries", a.used)
	}
	var all []span
	for w, ss := range spans {
		for _, s := range ss {
			if s.off == 0 || (s.off&chunkMask)+s.n > chunkSize && s.n < chunkSize/2 {
				t.Fatalf("allocation %+v leaves its chunk", s)
			}
			if p := unsafe.Slice((*byte)(a.at(s.off)), s.n); p[0] != byte(w+1) || p[s.n-1] != byte(w+1) {
				t.Fatalf("allocation %+v overwritten by another", s)
			}
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].off < all[j].off })
	for i := 1; i < len(all); i++ {
		if all[i-1].off+all[i-1].n > all[i].off {
			t.Fatalf("allocations %+v and %+v overlap", all[i-1], all[i])
		}
	}
}

// TestArenaModelConcurrent is the list's model test over an arena that
// crosses many chunk boundaries, with oversized keys, under both the
// byte-order and the internal-key comparator: writers Insert and
// MultiInsert (new keys, overwrites, in-batch duplicates) while readers
// Get, GetAt a retained bound and iterate; the final contents must equal
// the writers' model.
func TestArenaModelConcurrent(t *testing.T) {
	t.Run("bytes", func(t *testing.T) { arenaModel(t, false) })
	t.Run("internal", func(t *testing.T) { arenaModel(t, true) })
}

func arenaModel(t *testing.T, internal bool) {
	const writers, baseKeys, newKeys = 3, 200, 8000
	l := New()
	if internal {
		l = NewWithComparator(func(a, b []byte) int {
			return keys.CompareInternal(keys.InternalKey(a), keys.InternalKey(b))
		})
	}
	var ret Retention
	l.SetRetention(&ret)

	// userKey is writer w's key i: the writer byte, i, and filler to a
	// length between 16 and 415 bytes; each writer's key 0 is oversized.
	userKeys := make([][][]byte, writers)
	for w := range userKeys {
		for i := 0; i < baseKeys+newKeys; i++ {
			n := 16 + (i*7919)%400
			if i == 0 {
				n = chunkSize/2 + 1000*w
			}
			k := make([]byte, n)
			k[0] = byte(w)
			binary.BigEndian.PutUint32(k[1:], uint32(i))
			for j := 5; j < n; j++ {
				k[j] = byte(i + j)
			}
			userKeys[w] = append(userKeys[w], k)
		}
	}
	userKey := func(w, i int) []byte { return userKeys[w][i] }
	var seq atomic.Uint64
	write := func(uk []byte) KV {
		s := seq.Add(1)
		k := uk
		if internal {
			k = keys.MakeInternal(uk, s, keys.KindSet)
		}
		return KV{Key: k, Entry: &Entry{Value: keys.EncodeUint64(s), Seq: s}}
	}

	// models[w] maps each list key writer w wrote to the seq it must hold.
	models := make([]map[string]uint64, writers)
	base := make([][]KV, writers)
	for w := range models {
		models[w] = map[string]uint64{}
		for i := 0; i < baseKeys; i++ {
			kv := write(userKey(w, i))
			l.Insert(kv.Key, kv.Entry)
			base[w] = append(base[w], kv)
			models[w][string(kv.Key)] = kv.Entry.Seq
		}
	}
	bound := seq.Load()
	ret.Set([]uint64{bound})

	var writing sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			next := baseKeys
			pick := func() []byte { return userKey(w, rng.Intn(next)) }
			for next < baseKeys+newKeys-16 {
				switch rng.Intn(3) {
				case 0: // overwrite (a new version, under internal keys)
					kv := write(pick())
					l.Insert(kv.Key, kv.Entry)
					models[w][string(kv.Key)] = kv.Entry.Seq
				case 1: // a new key
					kv := write(userKey(w, next))
					next++
					l.Insert(kv.Key, kv.Entry)
					models[w][string(kv.Key)] = kv.Entry.Seq
				default: // an unsorted batch of new and old keys, with duplicates
					var batch []KV
					var uks [][]byte
					for j := rng.Intn(16); j >= 0; j-- {
						uk := pick()
						switch rng.Intn(4) {
						case 0, 1:
							uk = userKey(w, next)
							next++
						case 2:
							if len(uks) > 0 { // a duplicate, written later
								uk = uks[rng.Intn(len(uks))]
							}
						}
						uks = append(uks, uk)
						batch = append(batch, write(uk))
					}
					for _, kv := range batch { // later duplicates win
						models[w][string(kv.Key)] = kv.Entry.Seq
					}
					l.MultiInsert(batch)
				}
			}
		}(w)
	}

	var reading sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		done.Store(true)
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen := map[string]uint64{}
			var it Iterator
			for !done.Load() {
				b := base[rng.Intn(writers)][rng.Intn(baseKeys)]
				uk := b.Key
				if internal {
					uk = keys.InternalKey(b.Key).UserKey()
				}
				// The newest version: Get under byte order, a Seek under
				// internal keys (newest sorts first).
				var e *Entry
				if internal {
					it.Reset(l)
					it.Seek(keys.SeekInternal(uk, keys.MaxSeq))
					if it.Valid() && bytes.Equal(keys.InternalKey(it.Key()).UserKey(), uk) {
						e = it.Entry()
					}
				} else if got, ok := l.Get(uk); ok {
					e = got
				}
				if e == nil {
					fail("reader %d: existing key %.8x missing", r, uk)
					return
				}
				if keys.DecodeUint64(e.Value) != e.Seq || e.Seq < seen[string(uk)] {
					fail("reader %d: key %.8x went to seq %d (value %x) after %d", r, uk, e.Seq, e.Value, seen[string(uk)])
					return
				}
				seen[string(uk)] = e.Seq
				// The base version stays reachable at the retained bound.
				if e, ok := l.GetAt(b.Key, bound); !ok || e.Seq != b.Entry.Seq {
					fail("reader %d: GetAt(%.8x, %d) = %+v %v, want seq %d", r, uk, bound, e, ok, b.Entry.Seq)
					return
				}
			}
		}(r)
	}
	reading.Add(1)
	go func() {
		defer reading.Done()
		for !done.Load() {
			var prev []byte
			n := 0
			it := l.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if prev != nil && l.cmp(prev, it.Key()) >= 0 {
					fail("iterator: %.8x after %.8x", it.Key(), prev)
					return
				}
				if e := it.Entry(); keys.DecodeUint64(e.Value) != e.Seq {
					fail("iterator: torn entry %+v", e)
					return
				}
				prev = it.Key()
				n++
			}
			if n < writers*baseKeys {
				fail("iterator saw %d keys, fewer than the %d written first", n, writers*baseKeys)
				return
			}
		}
	}()
	writing.Wait()
	done.Store(true)
	reading.Wait()
	if t.Failed() {
		return
	}

	want := map[string]uint64{}
	for _, m := range models {
		for k, s := range m {
			want[k] = s
		}
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, model holds %d keys", l.Len(), len(want))
	}
	n := 0
	var prev []byte
	it := l.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && l.cmp(prev, it.Key()) >= 0 {
			t.Fatalf("final order: %.8x after %.8x", it.Key(), prev)
		}
		if s, ok := want[string(it.Key())]; !ok || it.Entry().Seq != s {
			t.Fatalf("key %.8x holds seq %d, model %d (present %v)", it.Key(), it.Entry().Seq, s, ok)
		}
		prev = it.Key()
		n++
	}
	if n != len(want) {
		t.Fatalf("iterated %d keys, model holds %d", n, len(want))
	}
	if chunks := l.arena.used - 1; chunks < 9 {
		t.Fatalf("the list used %d chunks; the test must cross at least 8 boundaries", chunks)
	}
}

// TestArenaInsertAllocatesNothing: a key costs its caller's Entry and
// nothing else the allocator sees per operation — chunks and entry-table
// segments are amortized over thousands of keys. Overwrites and
// multi-inserts of caller-made batches likewise.
func TestArenaInsertAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	ks := make([][]byte, n+1)
	for i := range ks {
		ks[i] = keys.EncodeUint64(rng.Uint64())
	}
	es := make([]Entry, 2*(n+1))
	l := New()
	i := 0
	if a := testing.AllocsPerRun(n, func() { l.Insert(ks[i], &es[i]); i++ }); a != 0 {
		t.Fatalf("Insert of a new key: %v allocs/op", a)
	}
	j := 0
	if a := testing.AllocsPerRun(n, func() { l.Insert(ks[j], &es[n+1+j]); j++ }); a != 0 {
		t.Fatalf("Insert over an existing key: %v allocs/op", a)
	}
	batch := make([]KV, 64)
	b := 0
	if a := testing.AllocsPerRun(100, func() {
		for k := range batch {
			batch[k] = KV{Key: ks[(b*64+k)%len(ks)], Entry: &es[k]}
		}
		l.MultiInsert(batch)
		b++
	}); a != 0 {
		t.Fatalf("MultiInsert of a 64-key batch: %v allocs/op", a)
	}
}

// TestArenaOverwritesStayFlat is §3.2's guard: overwriting a small key set
// in place must not grow the list — values stay off the arena, so a hot
// key costs one current value however often it is written, and a
// Memtable sized by ApproxBytes never fills from updates alone.
func TestArenaOverwritesStayFlat(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 100_000
	}
	l := New()
	ks := make([][]byte, 16)
	val := make([]byte, 256)
	for i := range ks {
		ks[i] = keys.EncodeUint64(uint64(i) << 60)
		l.Insert(ks[i], &Entry{Value: val, Seq: uint64(i + 1)})
	}
	bytesBefore, bumpBefore := l.ApproxBytes(), l.arena.bump.Load()
	if per := bytesBefore / 16; per < 324 || per > 396 {
		t.Fatalf("a key with a 256-byte value charges %d bytes, want within 10%% of 360", per)
	}
	for i := 0; i < n; i++ {
		l.Insert(ks[i%16], &Entry{Value: val, Seq: uint64(17 + i)})
	}
	if got := l.ApproxBytes(); got != bytesBefore {
		t.Fatalf("%d overwrites moved ApproxBytes %d -> %d", n, bytesBefore, got)
	}
	if l.arena.bump.Load() != bumpBefore || l.Len() != 16 {
		t.Fatalf("overwrites allocated arena space (bump %#x -> %#x, %d keys)", bumpBefore, l.arena.bump.Load(), l.Len())
	}
}
