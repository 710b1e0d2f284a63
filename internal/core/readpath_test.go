package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// TestFilterHasNoFalseNegatives drives every way into the Memtable — the
// slow path of Put and Delete (a Membuffer of a few buckets is full most of
// the time), the drain under 2 and 4 drainers, Apply's spill — while
// the store flushes underneath, so that a key whose filter bits were not
// set before its list insert reads as an older version from disk, or as
// absent. One writer owns each key and versions only grow. A writer reads
// back what it was just acknowledged; readers sweep every key against the
// floor its writer published; after a drain everything is checked against
// the writers' final state, and again after a crash and WAL replay.
func TestFilterHasNoFalseNegatives(t *testing.T) {
	for _, drainers := range []int{2, 4} {
		t.Run(fmt.Sprintf("%d-drainers-simple=false", drainers), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.MemoryBytes = 256 << 10
			cfg.MembufferFraction = 0.02 // 64 buckets of a few slots: rejections are routine
			cfg.DrainThreads = drainers
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()

			const (
				writers       = 4
				keysPerWriter = 1024
			)
			key := func(w, k int) []byte { return spreadKey(uint64(w*keysPerWriter + k + 1)) }
			// state[w][k] is 2*version once Put(version) is acknowledged, and
			// odd from before a Delete is issued until the Put after it is
			// acknowledged: an absent key is legal only if the state was odd
			// or moved while the reader looked.
			var state [writers][keysPerWriter]atomic.Uint64
			check := func(w, k int) error {
				before := state[w][k].Load()
				v, ok, err := db.Get(bg, key(w, k))
				switch {
				case err != nil:
					return err
				case before%2 == 1 || before == 0:
					return nil
				case !ok && state[w][k].Load() == before:
					return fmt.Errorf("key %d/%d is absent, version %d was acknowledged", w, k, before/2)
				case ok && keys.DecodeUint64(v) < before/2:
					return fmt.Errorf("key %d/%d reads version %d, %d was acknowledged", w, k, keys.DecodeUint64(v), before/2)
				}
				return nil
			}

			const versions = 3000 // per writer: ~2.5 MiB in all, ten Memtables' worth
			stop := make(chan struct{})
			var wg, writing sync.WaitGroup
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func() {
					defer writing.Done()
					pad := make([]byte, 120) // ~200 B an entry: the 250 KiB Memtable flushes every ~1000 writes
					for ver := uint64(1); ver <= versions; ver++ {
						own := func(k int, want uint64) bool {
							v, ok, err := db.Get(bg, key(w, k))
							if err != nil || ok != (want != 0) || ok && keys.DecodeUint64(v) != want {
								t.Errorf("writer %d key %d: read back %x ok=%v err=%v after version %d was acknowledged", w, k, v, ok, err, want)
								return false
							}
							return true
						}
						value := append(keys.EncodeUint64(ver), pad...)
						switch k := int(ver) % keysPerWriter; {
						case ver%16 == 0: // a batch over a run of keys, one of them deleted and rewritten in it
							b := kv.NewBatch()
							for i := 0; i < 8; i++ {
								b.Put(key(w, (k+i)%keysPerWriter), value)
							}
							b.Delete(key(w, k))
							b.Put(key(w, k), value)
							state[w][k].Store(2*ver - 1) // a Get may see the batch half applied
							if err := db.Apply(bg, b); err != nil {
								t.Error(err)
								return
							}
							for i := 0; i < 8; i++ {
								state[w][(k+i)%keysPerWriter].Store(2 * ver)
								if !own((k+i)%keysPerWriter, ver) {
									return
								}
							}
						case ver%5 == 0:
							state[w][k].Store(2*ver - 1)
							if err := db.Delete(bg, key(w, k)); err != nil {
								t.Error(err)
								return
							}
							if !own(k, 0) {
								return
							}
							fallthrough
						default:
							if err := db.Put(bg, key(w, k), value); err != nil {
								t.Error(err)
								return
							}
							state[w][k].Store(2 * ver)
							if !own(k, ver) {
								return
							}
						}
					}
				}()
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						for w := 0; w < writers; w++ {
							for k := 0; k < keysPerWriter; k++ {
								select {
								case <-stop:
									return
								default:
								}
								if err := check(w, k); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}
				}()
			}
			writing.Wait()
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}
			st := db.Stats()
			if st.MemtableWrites == 0 || st.Flushes == 0 || db.stats.drainedEntries.Load() == 0 || st.Batches == 0 {
				t.Fatalf("a path into the Memtable did not run: %+v, drained %d", st, db.stats.drainedEntries.Load())
			}

			// Quiesced: every key's newest version is in a Memtable or below.
			final := func(db *DB, when string) {
				t.Helper()
				for w := 0; w < writers; w++ {
					for k := 0; k < keysPerWriter; k++ {
						want := state[w][k].Load()
						if want%2 == 1 { // stopped between a Delete and its Put
							continue
						}
						v, ok, err := db.Get(bg, key(w, k))
						if err != nil || ok != (want != 0) || ok && keys.DecodeUint64(v) != want/2 {
							t.Fatalf("%s: key %d/%d reads %x ok=%v err=%v, version %d was acknowledged", when, w, k, v, ok, err, want/2)
						}
					}
				}
			}
			waitFor(t, "the Membuffer to drain", func() bool { return db.gen.Load().mbf.Len() == 0 })
			final(db, "after the drain")

			if err := db.Sync(bg); err != nil {
				t.Fatal(err)
			}
			db.CrashForTesting()
			if db, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			final(db, "after WAL replay")
		})
	}
}

// TestWALRecordsPerPut counts log records per acknowledged Put when the
// Membuffer turns most of them away: the only drainer is parked, two
// buckets fill, and every Put after that logs in the fast-path lap and then
// takes the slow path under the same segment. One record each.
func TestWALRecordsPerPut(t *testing.T) {
	cfg := testConfig(t)
	cfg.MembufferFraction = 0.001
	cfg.PartitionBits = 1
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	claimed, release := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookDrainerClaimed, claimed, release)
	db.testHook.Store(&hook)
	defer close(release)

	const n = 500
	for i := 0; i < n; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.MemtableWrites < n/2 || st.Flushes != 0 {
		t.Fatalf("%d of %d Puts took the slow path, %d flushes: the buckets were not held full under one segment", st.MemtableWrites, n, st.Flushes)
	}
	if st.AckedSeq != n {
		t.Fatalf("%d WAL records for %d acknowledged Puts (%d through the slow path)", st.AckedSeq, n, st.MemtableWrites)
	}
	for i := 0; i < n; i++ {
		if v, ok, err := db.Get(bg, spreadKey(uint64(i))); err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
			t.Fatalf("key %d: %x ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestL0BacklogCountsAsStall holds compactions (the trigger is out of
// reach) with the stall threshold at one file: once a flush lands, a write
// on the Memtable path waits on the L0 backlog until its context gives up,
// and that wait is stall time, recorded as one stall under cause l0 — for
// Put and for Apply, which share admit. The by-cause series always sum to
// the total.
func TestL0BacklogCountsAsStall(t *testing.T) {
	cfg := testConfig(t)
	cfg.DisableMembuffer = true // every write takes the path that checks the backlog
	cfg.Storage.L0StallThreshold = 1
	cfg.Storage.L0CompactionTrigger = 100
	db := openTestDB(t, cfg)

	val := make([]byte, 1000)
	for i := 0; db.Stats().Flushes == 0; i++ {
		ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
		err := db.Put(ctx, spreadKey(uint64(i)), val)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			break // the flush landed while this Put was on its way in
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 10000 {
			t.Fatal("no flush")
		}
	}
	waitFor(t, "the L0 backlog", func() bool { return db.store.NeedsStall() })

	waitsCountUnder(t, db, stallL0, val)
}

// TestUnfinishedPersistCountsAsStall parks the persisting thread after it
// has sealed a Memtable and before it flushes it: once the next Memtable
// passes its target, a write on the Memtable path waits on the unfinished
// persist until its context gives up, and that wait is stall time,
// recorded as one stall under cause memtable — for Put and for Apply.
func TestUnfinishedPersistCountsAsStall(t *testing.T) {
	cfg := testConfig(t)
	cfg.DisableMembuffer = true // every write takes the path that checks the Memtable
	db := openTestDB(t, cfg)
	parked, release := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookPersisting, parked, release)
	db.testHook.Store(&hook)
	t.Cleanup(func() { close(release) }) // before Close, which waits for the persister

	val := make([]byte, 1000)
	for i := 0; ; i++ {
		ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
		err := db.Put(ctx, spreadKey(uint64(i)), val)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			break // the next Memtable filled while the sealed one waits
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 10000 {
			t.Fatal("writes never waited on the parked persist")
		}
	}
	select {
	case <-parked:
	default:
		t.Fatal("a write waited, but not on a persist parked before its flush")
	}
	waitsCountUnder(t, db, stallMemtable, val)
}

// waitsCountUnder checks that a Put and an Apply on a store whose writers
// must wait on cause each wait until their context gives up, and that the
// wait is stall time, recorded as one stall under cause. The by-cause
// series always sum to the total.
func waitsCountUnder(t *testing.T, db *DB, cause stallCause, val []byte) {
	t.Helper()
	stalled := func() time.Duration { return time.Duration(db.stats.stallNanos.Load()) }
	byCause := func(c stallCause) time.Duration { return time.Duration(db.stats.stallByCause[c].Load()) }
	sumsToTotal := func(when string) {
		t.Helper()
		var sum time.Duration
		for c := range stallCauseNames {
			sum += byCause(stallCause(c))
		}
		if total := stalled(); sum != total {
			t.Fatalf("%s: the by-cause stall series sum to %v, the total is %v", when, sum, total)
		}
	}
	sumsToTotal("before")
	name := stallCauseNames[cause]
	const wait = 30 * time.Millisecond
	for _, op := range []struct {
		name string
		do   func(ctx context.Context) error
	}{
		{"Put", func(ctx context.Context) error { return db.Put(ctx, []byte("k"), val) }},
		{"Apply", func(ctx context.Context) error {
			b := kv.NewBatch()
			b.Put([]byte("k"), val)
			return db.Apply(ctx, b)
		}},
	} {
		before, stalls, under := stalled(), db.stats.stallLat.Count(), byCause(cause)
		ctx, cancel := context.WithTimeout(bg, wait)
		err := op.do(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s against a %s backlog: %v", op.name, name, err)
		}
		if got := stalled() - before; got < wait/2 {
			t.Fatalf("%s waited %v on the %s backlog, %v of it counted as stall", op.name, wait, name, got)
		}
		if got := db.stats.stallLat.Count() - stalls; got != 1 {
			t.Fatalf("%s added %d observations to flodb_write_stall_seconds, want 1", op.name, got)
		}
		if got := byCause(cause) - under; got < wait/2 {
			t.Fatalf("%s waited %v on the %s backlog, %v of it counted under cause %s", op.name, wait, name, got, name)
		}
		sumsToTotal(op.name)
	}
}

// TestGetAllocationBudget is the point read's budget on disk-resident data:
// a read that finds its row cached allocates nothing, and one that has to
// read the block allocates the row and its cache entry — no block, no
// handle, nothing per table probed. Get adds exactly one allocation to
// either: the copy of the value the caller owns (kv.Store's ownership
// rule).
func TestGetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts: the scratch block is re-made")
	}
	cfg := testConfig(t)
	cfg.Storage.BlockCacheBytes = 64 << 20
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000
	val := make([]byte, 256)
	for i := 0; i < n; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil { // flushes: the reopened store reads from tables only
		t.Fatal(err)
	}
	db = openTestDB(t, cfg)
	db.WaitDiskQuiesce()
	if m := db.store.Metrics(); m.FilesPerLevel[0]+m.FilesPerLevel[1] < 2 {
		t.Fatalf("want several tables: %+v", m.FilesPerLevel)
	}
	var ks [n][]byte
	for i := range ks {
		ks[i] = spreadKey(uint64(i))
	}
	get := func(i int) {
		if v, ok, err := db.get(bg, ks[i]); err != nil || !ok || len(v) != len(val) {
			t.Fatalf("get(%d): %d bytes ok=%v err=%v", i, len(v), ok, err)
		}
	}
	for i := 0; i < 1000; i++ { // every table open, its filter in hand
		get(i)
	}
	i := 1000
	if miss := testing.AllocsPerRun(2000, func() { get(i); i++ }); miss > 3 {
		t.Errorf("a read that reads its block: %.1f allocations, budget 3", miss)
	}
	i = 1000
	if hit := testing.AllocsPerRun(2000, func() { get(i); i++ }); hit != 0 {
		t.Errorf("a read that finds its row: %.1f allocations, budget 0", hit)
	}
	i = 1000
	if hit := testing.AllocsPerRun(2000, func() { db.Get(bg, ks[i]); i++ }); hit != 1 {
		t.Errorf("a Get that finds its row: %.1f allocations, want 1 (the caller's copy)", hit)
	}
	if st := db.Stats(); st.BlockCacheHits < 4000 || st.BlockCacheEvictions != 0 {
		t.Fatalf("the second and third passes should have hit: %+v", st)
	}
}

// TestRowCacheCoherence checks that a cached row never answers for anything
// but its own immutable table: a random mix of Put, Delete, Get, Snapshot
// reads, forced flushes and forced compactions is compared with a map (one
// copy per open snapshot), with the cache unable to hold a row, holding a
// part of the data, and holding all of it. It opens with the cases named in
// the design: a key whose newer version sits in L0 while its older row is
// cached from a deeper file, and a tombstone row.
func TestRowCacheCoherence(t *testing.T) {
	for _, cacheBytes := range []int64{1, 64 << 10, 64 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.MemoryBytes = 64 << 10
			cfg.Storage.BlockCacheBytes = cacheBytes
			cfg.Storage.L0CompactionTrigger = 3
			cfg.Storage.BaseLevelBytes = 64 << 10
			cfg.Storage.TargetFileSize = 16 << 10
			db := openTestDB(t, cfg)

			const keySpace = 400
			oracle := map[string]string{}
			type snap struct {
				view   kv.View
				oracle map[string]string
			}
			var snaps []snap
			put := func(k []byte, v string) {
				t.Helper()
				if err := db.Put(bg, k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				oracle[string(k)] = v
			}
			del := func(k []byte) {
				t.Helper()
				if err := db.Delete(bg, k); err != nil {
					t.Fatal(err)
				}
				delete(oracle, string(k))
			}
			read := func(what string, get func(context.Context, []byte) ([]byte, bool, error), want map[string]string, k []byte) {
				t.Helper()
				v, ok, err := get(bg, k)
				if w, has := want[string(k)]; err != nil || ok != has || string(v) != w {
					t.Fatalf("%s: Get(%x) = %q ok=%v err=%v, the model has %q (%v)", what, k, v, ok, err, w, has)
				}
			}
			pin := func() {
				t.Helper()
				view, err := db.Snapshot(bg)
				if err != nil {
					t.Fatal(err)
				}
				o := make(map[string]string, len(oracle))
				for k, v := range oracle {
					o[k] = v
				}
				snaps = append(snaps, snap{view, o})
			}
			readAll := func(what string, k []byte) {
				t.Helper()
				read(what, db.Get, oracle, k)
				read(what, db.Get, oracle, k) // the row the first read left
				for i, s := range snaps {
					read(fmt.Sprintf("%s, snapshot %d", what, i), s.view.Get, s.oracle, k)
				}
			}
			flush := func() {
				t.Helper()
				if err := db.persistOnce(); err != nil {
					t.Fatal(err)
				}
			}
			filler := 0
			flushWith := func(n int) { // a flush that carries n other keys, so tables have neighbours
				t.Helper()
				for i := 0; i < n; i++ {
					filler++
					put(spreadKey(uint64(1000+filler%keySpace)), fmt.Sprintf("f%d", filler))
				}
				flush()
			}

			hot := spreadKey(7)
			put(hot, "v1")
			for i := 0; i < 3; i++ {
				flushWith(50)
			}
			db.store.WaitForCompactions()
			if m := db.store.Metrics(); m.FilesPerLevel[0] != 0 || m.Compactions == 0 {
				t.Fatalf("v1 should sit below L0: %+v", m.FilesPerLevel)
			}
			readAll("v1 in a deep file", hot)
			pin() // sees v1
			put(hot, "v2")
			flushWith(10)
			if m := db.store.Metrics(); m.FilesPerLevel[0] != 1 {
				t.Fatalf("v2 should sit in L0: %+v", m.FilesPerLevel)
			}
			readAll("v2 in L0 over the cached row of v1", hot)
			del(hot)
			flushWith(10)
			readAll("a tombstone in L0", hot)
			pin() // sees the tombstone
			put(hot, "v3")
			flushWith(10)
			db.store.WaitForCompactions()
			readAll("v3 after the files of v1, v2 and the tombstone were compacted away", hot)

			rng := rand.New(rand.NewSource(cacheBytes))
			for op := 0; op < 6000; op++ {
				k := spreadKey(uint64(rng.Intn(keySpace)))
				switch c := rng.Intn(100); {
				case c < 30:
					put(k, fmt.Sprintf("v%d", op))
				case c < 40:
					del(k)
				case c < 90:
					readAll(fmt.Sprintf("op %d", op), k)
				case c < 93:
					if len(snaps) == 3 {
						snaps[0].view.Close()
						snaps = snaps[1:]
					}
					pin()
				case c < 98:
					flush()
				default:
					db.store.WaitForCompactions()
				}
			}
			for i := 0; i < keySpace; i++ {
				readAll("final", spreadKey(uint64(i)))
			}
			for _, s := range snaps {
				s.view.Close()
			}
			st := db.Stats()
			if st.Flushes < 20 || st.Compactions < 3 || st.BlockCacheMisses == 0 {
				t.Fatalf("the disk path was not exercised: %+v", st)
			}
			if cacheBytes > 1<<20 && (st.BlockCacheHits == 0 || st.BlockCacheEvictions != 0) {
				t.Fatalf("a cache larger than the data: %d hits, %d evictions", st.BlockCacheHits, st.BlockCacheEvictions)
			}
		})
	}
}
