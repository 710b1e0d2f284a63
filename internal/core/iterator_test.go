package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// readConfigs are the store shapes every range-read contract test runs
// over: the default two-level store, the store whose persists discard
// (an empty Version under every view) and the store without a Membuffer
// (no seal, the grace period alone separates past from future). The networked system
// runs the same contract in internal/figures
// (TestAllSystemsIteratorPointInTime).
func readConfigs(t *testing.T, memory int64) map[string]Config {
	t.Helper()
	def := Config{Dir: t.TempDir(), MemoryBytes: memory}
	noHT := Config{Dir: t.TempDir(), MemoryBytes: memory, DisableMembuffer: true}
	return map[string]Config{
		"default":          def,
		"DropPersist":      {Dir: t.TempDir(), DropPersist: true, MemoryBytes: memory},
		"DisableMembuffer": noHT,
	}
}

// forEachReadConfig runs fn once per store shape.
func forEachReadConfig(t *testing.T, memory int64, fn func(t *testing.T, db *DB)) {
	for name, cfg := range readConfigs(t, memory) {
		t.Run(name, func(t *testing.T) { fn(t, openTestDB(t, cfg)) })
	}
}

// openBounds counts the sequence bounds still registered: one per open
// view.
func openBounds(db *DB) int {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	return len(db.snapBounds)
}

// drive collects what it yields from its current position to exhaustion.
func drive(t *testing.T, it kv.Iterator, ok bool) (got []kv.Pair) {
	t.Helper()
	for ; ok; ok = it.Next() {
		got = append(got, kv.Pair{Key: keys.Clone(it.Key()), Value: keys.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// sortedPairs renders a model map as the pairs a full-range read must
// return.
func sortedPairs(model map[string]string) []kv.Pair {
	out := make([]kv.Pair, 0, len(model))
	for k, v := range model {
		out = append(out, kv.Pair{Key: []byte(k), Value: []byte(v)})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

func requirePairs(t *testing.T, what string, got, want []kv.Pair) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d is (%x,%q), want (%x,%q)", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
}

// TestIteratorMatchesScan drives random data through drains and persists,
// then checks that the streaming iterator yields exactly what Scan
// materializes, in the same order.
func TestIteratorMatchesScan(t *testing.T) {
	// 256 KiB holds the whole data set, so the DropPersist store discards
	// nothing; the other shapes still drain and persist constantly.
	forEachReadConfig(t, 256<<10, func(t *testing.T, db *DB) {
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 5000; i++ {
			k := spreadKey(uint64(rng.Intn(900)))
			if rng.Intn(6) == 0 {
				if err := db.Delete(bg, k); err != nil {
					t.Fatal(err)
				}
			} else if err := db.Put(bg, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, bd := range [][2][]byte{
			{nil, nil},
			{spreadKey(100), spreadKey(400)},
			{spreadKey(0), spreadKey(1)},
			{spreadKey(5), {}}, // an empty high bound is a bound, not "open"
		} {
			low, high := bd[0], bd[1]
			want, err := db.Scan(bg, low, high)
			if err != nil {
				t.Fatal(err)
			}
			it, err := db.NewIterator(bg, low, high)
			if err != nil {
				t.Fatal(err)
			}
			requirePairs(t, fmt.Sprintf("range [%x,%x)", low, high), drive(t, it, it.First()), want)
			it.Close()
		}
	})
}

// TestIteratorStreamsLargeRange iterates a range much larger than the
// memory component: every key arrives, in order, through flushes and
// compactions running underneath.
func TestIteratorStreamsLargeRange(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 64 << 10 // 64 KiB memory component
	db := openTestDB(t, cfg)

	const n = 20000
	val := bytes.Repeat([]byte("x"), 64) // ~1.4 MiB total: >> memory component
	for i := 0; i < n; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	var prev []byte
	for ok := it.First(); ok; ok = it.Next() {
		if count > 0 && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("key %x after %x", it.Key(), prev)
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("iterated %d of %d keys", count, n)
	}
}

// TestIteratorSeekAndContract covers the cursor contract: Seek positioning
// and clamping, Next-implies-First, exhaustion, and Close.
func TestIteratorSeekAndContract(t *testing.T) {
	forEachReadConfig(t, 1<<20, func(t *testing.T, db *DB) {
		for i := 0; i < 100; i++ {
			if err := db.Put(bg, keys.EncodeUint64(uint64(i*2)), keys.EncodeUint64(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}

		it, err := db.NewIterator(bg, keys.EncodeUint64(10), keys.EncodeUint64(50))
		if err != nil {
			t.Fatal(err)
		}
		if it.Key() != nil || it.Value() != nil {
			t.Fatal("Key/Value must be nil before positioning")
		}

		// Next on an unpositioned iterator behaves like First.
		if !it.Next() || keys.DecodeUint64(it.Key()) != 10 {
			t.Fatalf("Next-as-First got %x", it.Key())
		}
		// Seek to an absent key positions at the next present one.
		if !it.Seek(keys.EncodeUint64(31)) || keys.DecodeUint64(it.Key()) != 32 {
			t.Fatalf("Seek(31) got %x", it.Key())
		}
		// Seek below low clamps to low.
		if !it.Seek(keys.EncodeUint64(2)) || keys.DecodeUint64(it.Key()) != 10 {
			t.Fatalf("Seek below low got %x", it.Key())
		}
		if !it.Seek(nil) || keys.DecodeUint64(it.Key()) != 10 {
			t.Fatalf("Seek(nil) got %x", it.Key())
		}
		// Seek past high exhausts.
		if it.Seek(keys.EncodeUint64(60)) {
			t.Fatalf("Seek past high still valid at %x", it.Key())
		}
		// Full drive: 10,12,...,48.
		count := 0
		for ok := it.First(); ok; ok = it.Next() {
			if got := keys.DecodeUint64(it.Key()); got != uint64(10+2*count) {
				t.Fatalf("pair %d: key %d", count, got)
			}
			if got := keys.DecodeUint64(it.Value()); got != uint64(5+count) {
				t.Fatalf("pair %d: value %d", count, got)
			}
			count++
		}
		if count != 20 {
			t.Fatalf("drove %d pairs, want 20", count)
		}
		if it.Key() != nil || it.Value() != nil {
			t.Fatal("Key/Value must be nil when exhausted")
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal("Close must be idempotent:", err)
		}
		// A closed handle is dead even though its frame is back in the
		// pool and serving the next iterator.
		other, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if !other.First() {
			t.Fatal("second iterator is empty")
		}
		if it.First() || it.Next() || it.Seek(keys.EncodeUint64(10)) || it.Key() != nil || it.Value() != nil {
			t.Fatal("closed iterator repositioned")
		}
		if it.Close() != nil || it.Err() != nil {
			t.Fatal("closed iterator reports an error")
		}
		if keys.DecodeUint64(other.Key()) != 0 {
			t.Fatalf("closing twice disturbed the next iterator: at %x", other.Key())
		}
	})
}

// TestIteratorPointInTime is the model test of the iterator's contract:
// one point-in-time view for its whole lifetime. While a cursor streams,
// the test overwrites, deletes and inserts keys behind it, under it and
// ahead of it, lets them drain (opening the second iterator seals the
// Membuffer) and, where there is a disk, persist. The first iterator must
// return exactly the model's state at the moment it was opened; a second
// one opened later must return the newer state; the first, re-driven
// from the start after all of that, must STILL return the old state.
func TestIteratorPointInTime(t *testing.T) {
	forEachReadConfig(t, 1<<20, func(t *testing.T, db *DB) {
		const n = 2000
		key := func(i int) []byte { return keys.EncodeUint64(uint64(i) << 52) } // all partitions
		model := map[string]string{}
		put := func(i int, v string) {
			t.Helper()
			if err := db.Put(bg, key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[string(key(i))] = v
		}
		del := func(i int) {
			t.Helper()
			if err := db.Delete(bg, key(i)); err != nil {
				t.Fatal(err)
			}
			delete(model, string(key(i)))
		}
		for i := 0; i < n; i += 2 { // even keys only: odd ones are insert targets
			put(i, fmt.Sprintf("old-%d", i))
		}
		for i := 0; i < n; i += 20 { // some keys are already dead at open
			del(i)
		}
		atOpen := sortedPairs(model)

		first, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer first.Close()
		var got []kv.Pair
		ok := first.First()
		for ; ok && len(got) < len(atOpen)/2; ok = first.Next() {
			got = append(got, kv.Pair{Key: keys.Clone(first.Key()), Value: keys.Clone(first.Value())})
		}
		if !ok {
			t.Fatal("iterator ended before the midpoint")
		}
		cursor := int(keys.DecodeUint64(first.Key()) >> 52) // the key the cursor rests on

		// Mutate behind, at and ahead of the cursor: overwrite twice (the
		// second overwrite must not lose the chained pre-open version),
		// delete, resurrect a key that was dead at open, insert new keys.
		for _, at := range []int{cursor - 40, cursor - 2, cursor, cursor + 2, cursor + 40} {
			at -= at % 2
			put(at, "new-1")
			put(at, "new-2")
			del(at + 4)
			put(at+1, "inserted")
		}
		put(0, "resurrected")
		put(n-20, "resurrected")

		second, err := db.NewIterator(bg, nil, nil) // also seals: the writes above reach the Memtable
		if err != nil {
			t.Fatal(err)
		}
		defer second.Close()
		atSecond := sortedPairs(model)
		if !db.cfg.DropPersist {
			before := db.stats.persists.Load()
			for i := 0; i < 64; i++ { // push the Memtable over its target
				put(n+i, string(bytes.Repeat([]byte("p"), 16<<10)))
			}
			waitPersists(t, db, before+1)
			for i := 0; i < 64; i++ {
				del(n + i)
			}
		}

		requirePairs(t, "first iterator", append(got, drive(t, first, true)...), atOpen)
		requirePairs(t, "first iterator, re-driven", drive(t, first, first.First()), atOpen)
		if !first.Seek(key(cursor)) || !bytes.Equal(first.Key(), key(cursor)) {
			t.Fatalf("re-seek to the cursor landed on %x", first.Key())
		}

		// The second iterator postdates the mutations and predates the
		// persist filler.
		requirePairs(t, "second iterator", drive(t, second, second.First()), atSecond)
		put(1, "last")
		third, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer third.Close()
		requirePairs(t, "iterator opened last", drive(t, third, third.First()), sortedPairs(model))
	})
}

// TestIteratorUnderConcurrentWriters streams while writers hammer the
// store. Writer w owns key group w and bumps every key of its group to
// the same version, round after round; an iterator must never see one
// group at more than two adjacent versions (the round in flight when it
// opened) — a torn view shows more — and must see every key.
func TestIteratorUnderConcurrentWriters(t *testing.T) {
	forEachReadConfig(t, 256<<10, func(t *testing.T, db *DB) {
		const writers, groupSize = 3, 24
		key := func(w, i int) []byte { return spreadKey(uint64(w*groupSize + i)) }
		owner := map[string]int{}
		for w := 0; w < writers; w++ {
			for i := 0; i < groupSize; i++ {
				if err := db.Put(bg, key(w, i), keys.EncodeUint64(0)); err != nil {
					t.Fatal(err)
				}
				owner[string(key(w, i))] = w
			}
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for v := uint64(1); !stop.Load(); v++ {
					for i := 0; i < groupSize; i++ {
						if err := db.Put(bg, key(w, i), keys.EncodeUint64(v)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		for round := 0; round < 60; round++ {
			it, err := db.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var lo, hi [writers]uint64
			var seen [writers]int
			for ok := it.First(); ok; ok = it.Next() {
				w, v := owner[string(it.Key())], keys.DecodeUint64(it.Value())
				if seen[w] == 0 || v < lo[w] {
					lo[w] = v
				}
				if v > hi[w] {
					hi[w] = v
				}
				seen[w]++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			for w := 0; w < writers; w++ {
				if seen[w] != groupSize {
					t.Fatalf("round %d: saw %d of writer %d's %d keys", round, seen[w], w, groupSize)
				}
				if hi[w]-lo[w] > 1 {
					t.Fatalf("round %d: writer %d's group spans versions %d..%d — torn view", round, w, lo[w], hi[w])
				}
			}
		}
		stop.Store(true)
		wg.Wait()
	})
}

// TestIteratorContextCanceledMidRange: a context canceled while the
// cursor is mid-range stops it at the next positioning call, with the
// context's error in Err, and Close still releases the view.
func TestIteratorContextCanceledMidRange(t *testing.T) {
	forEachReadConfig(t, 1<<20, func(t *testing.T, db *DB) {
		for i := 0; i < 500; i++ {
			if err := db.Put(bg, spreadKey(uint64(i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		it, err := db.NewIterator(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if n++; n == 100 {
				cancel()
			}
		}
		if n != 100 {
			t.Fatalf("iterated %d pairs past a cancel at 100", n)
		}
		if err := it.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err after cancel: %v", err)
		}
		if it.Key() != nil {
			t.Fatal("a stopped iterator still rests on a pair")
		}
		it.Close()
		if err := it.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err after Close: %v", err)
		}
		if open := openBounds(db); open != 0 {
			t.Fatalf("%d sequence bounds still registered after Close", open)
		}
		if _, err := db.NewIterator(ctx, nil, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("NewIterator with a canceled context: %v", err)
		}
		if _, err := db.Scan(ctx, nil, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("Scan with a canceled context: %v", err)
		}
	})
}

// TestIteratorOpenAllocationBudget pins the cost of a short range read on
// a store with data on disk, in the sealed-and-live Memtable and in the
// Membuffer: the handle, the generation switch and the bound's two
// publications are all an open may allocate — nothing per source, nothing
// per key, nothing per block (TestDiskScanAllocationBudget pins that one).
// A seal that finds the Membuffer empty allocates nothing at all. As there,
// the disk data is out of L0, so no read-triggered compaction runs inside
// the measurement.
func TestIteratorOpenAllocationBudget(t *testing.T) {
	scanAllocBudget := 8.0 // measured 6
	if raceEnabled {
		scanAllocBudget = 24
	}
	cfg := testConfig(t)
	cfg.MemoryBytes = 512 << 10
	cfg.DrainThreads = 1
	cfg.Storage.L0CompactionTrigger = 1
	db := openTestDB(t, cfg)
	val := bytes.Repeat([]byte("v"), 100)
	const n = 12000 // ~1.3 MiB: several flushes, data in every level of the read path
	for i := 0; i < n; i++ {
		if err := db.Put(bg, keys.EncodeUint64(uint64(i)<<50), val); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitDiskQuiesce()
	if db.Stats().Flushes == 0 {
		t.Fatal("nothing reached disk")
	}
	if l0 := db.store.NumLevelFiles(0); l0 != 0 {
		t.Fatalf("%d tables in L0 after quiescing; the measurement wants none", l0)
	}
	readCompactions := metric(db, "flodb_read_compactions_total")
	var read int
	scan := func() {
		it, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok := it.Seek(keys.EncodeUint64(uint64(n/3) << 50))
		for read = 0; ok && read < 100; ok = it.Next() {
			read++
		}
		if err := errors.Join(it.Err(), it.Close()); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm the frame pool, the spare Membuffers and the block cache
	scan()
	scan()
	if allocs := testing.AllocsPerRun(50, scan); allocs > scanAllocBudget {
		t.Errorf("open + Seek + 100 Next + Close = %.1f allocations, want <= %.0f", allocs, scanAllocBudget)
	}
	if read != 100 {
		t.Fatalf("short scan read %d keys", read)
	}
	if n := metric(db, "flodb_read_compactions_total"); n != readCompactions {
		t.Fatalf("%d read-triggered compactions ran during the measurement", n-readCompactions)
	}

	seal := func() {
		db.drainMu.Lock()
		db.sealMembuffer(nil, nil)
		db.drainMu.Unlock()
	}
	seal()
	seal()
	if allocs := testing.AllocsPerRun(50, seal); allocs != 0 {
		t.Errorf("sealing an empty Membuffer = %.1f allocations, want 0", allocs)
	}
}

// TestDiskScanAllocationBudget is the disk-resident twin: everything is in
// tables (the store was closed and reopened), blocks hold two entries and
// the block cache holds nothing, so every block a scan crosses is read from
// the file. A scan that crosses twenty times the blocks must allocate what
// the short one does — the read windows live in the pooled frame — and
// that is the open's budget. L0 is empty before the measurement (every
// flush is compacted at once), so no scan spends a seek budget and no
// read-triggered compaction runs, and allocates, inside it.
func TestDiskScanAllocationBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 512 << 10
	cfg.DrainThreads = 1
	cfg.Storage.BlockSize = 256
	cfg.Storage.BlockCacheBytes = 1
	cfg.Storage.L0CompactionTrigger = 1
	db := openTestDB(t, cfg)
	val := bytes.Repeat([]byte("v"), 100)
	const n = 12000
	for i := 0; i < n; i++ {
		if err := db.Put(bg, keys.EncodeUint64(uint64(i)<<50), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, cfg)
	db.WaitDiskQuiesce()
	if l0 := db.store.NumLevelFiles(0); l0 != 0 {
		t.Fatalf("%d tables in L0 after quiescing; the measurement wants none", l0)
	}

	scan := func(steps int) func() {
		return func() {
			it, err := db.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			read := 0
			for ok := it.Seek(keys.EncodeUint64(uint64(n/3) << 50)); ok && read < steps; ok = it.Next() {
				read++
			}
			if err := errors.Join(it.Err(), it.Close()); err != nil || read != steps {
				t.Fatalf("read %d of %d keys: %v", read, steps, err)
			}
		}
	}
	before := db.Stats()
	scan(2000)() // warm the frame pool: each source's window grows once, here
	scan(2000)()
	if st := db.Stats(); st.BlockCacheHits != before.BlockCacheHits || st.Flushes != before.Flushes {
		t.Fatalf("not disk-resident: block cache hits %d -> %d, flushes %d -> %d",
			before.BlockCacheHits, st.BlockCacheHits, before.Flushes, st.Flushes)
	}
	// The long scan may cross into one more table than the short one (a
	// table-cache handle each); a per-block allocation would cost it ~950.
	budget, perFile := 10.0, 2.0 // measured 7–8, equal
	if raceEnabled {
		budget, perFile = 24, 24
	}
	readCompactions := metric(db, "flodb_read_compactions_total")
	short := testing.AllocsPerRun(50, scan(100)) // ~50 blocks
	long := testing.AllocsPerRun(50, scan(2000)) // ~1000 blocks
	if n := metric(db, "flodb_read_compactions_total"); n != readCompactions {
		t.Fatalf("%d read-triggered compactions ran during the measurement", n-readCompactions)
	}
	if short > budget || long > short+perFile {
		t.Errorf("open + Seek + Next + Close: %.1f allocations over 100 keys, %.1f over 2000; want <= %.0f and no more than %.0f apart",
			short, long, budget, perFile)
	}
}
