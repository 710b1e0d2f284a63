package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/storage"
)

// bg is the context threaded through every store call in these tests.
var bg = context.Background()

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Dir:         t.TempDir(),
		MemoryBytes: 1 << 20, // small: exercises drains and persists
	}
}

func openTestDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// spreadKey maps a small integer to a key spread uniformly over the key
// space (a fixed odd multiplier is a bijection mod 2^64), so tests exercise
// all membuffer partitions instead of the single partition sequential keys
// fall into (§4.3 skew).
func spreadKey(i uint64) []byte {
	return keys.EncodeUint64(i * 0x9e3779b97f4a7c15)
}

// waitPersists polls until at least n persists have completed.
func waitPersists(t *testing.T, db *DB, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.stats.persists.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("persists stuck at %d, want >= %d", db.stats.persists.Load(), n)
		}
		db.signalPersist()
		time.Sleep(time.Millisecond)
	}
}

// waitFor runs step until it reports true, failing the test after 30 s.
func waitFor(t *testing.T, what string, step func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !step() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPutGetBasic(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	if err := db.Put(bg, []byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get(bg, []byte("hello"))
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := db.Get(bg, []byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestOverwrite(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	k := []byte("key")
	for i := 0; i < 10; i++ {
		if err := db.Put(bg, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, _ := db.Get(bg, k)
	if !ok || string(v) != "v9" {
		t.Fatalf("Get after overwrites = %q, %v", v, ok)
	}
	// In-place updates: repeated writes to one key must not consume
	// significant memory (§3.2).
	if n := db.gen.Load().mbf.Len(); n > 1 {
		t.Fatalf("Membuffer holds %d entries after single-key overwrites", n)
	}
}

func TestDelete(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	k := []byte("key")
	db.Put(bg, k, []byte("v"))
	if err := db.Delete(bg, k); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(bg, k); ok {
		t.Fatal("deleted key still visible")
	}
	// Delete of a missing key is fine.
	if err := db.Delete(bg, []byte("never-existed")); err != nil {
		t.Fatal(err)
	}
	// Re-insert after delete.
	db.Put(bg, k, []byte("v2"))
	v, ok, _ := db.Get(bg, k)
	if !ok || string(v) != "v2" {
		t.Fatalf("re-insert after delete = %q, %v", v, ok)
	}
}

func TestGetAcrossLevels(t *testing.T) {
	// Force enough data through the system that keys live in the
	// membuffer, memtable and disk simultaneously, and verify Get returns
	// the freshest version of each.
	cfg := testConfig(t)
	cfg.MemoryBytes = 256 << 10
	db := openTestDB(t, cfg)

	const n = 2000
	val := func(i, gen int) []byte { return []byte(fmt.Sprintf("g%d-%d", gen, i)) }
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < n; i++ {
			// Distinct keys per generation so the memtable keeps growing
			// (in-place updates would keep it flat).
			if err := db.Put(bg, spreadKey(uint64(gen*n+i)), val(i, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitPersists(t, db, 1)
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < n; i++ {
			v, ok, err := db.Get(bg, spreadKey(uint64(gen*n+i)))
			if err != nil || !ok {
				t.Fatalf("Get(%d,%d): ok=%v err=%v", gen, i, ok, err)
			}
			if !bytes.Equal(v, val(i, gen)) {
				t.Fatalf("Get(%d,%d) = %q, want %q", gen, i, v, val(i, gen))
			}
		}
	}
}

func TestScanBasic(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	for i := 0; i < 100; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte(fmt.Sprintf("v%d", i)))
	}
	pairs, err := db.Scan(bg, keys.EncodeUint64(10), keys.EncodeUint64(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		want := uint64(10 + i)
		if keys.DecodeUint64(p.Key) != want || string(p.Value) != fmt.Sprintf("v%d", want) {
			t.Fatalf("pair %d = %x:%q", i, p.Key, p.Value)
		}
	}
}

func TestScanOpenBounds(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	for i := 0; i < 50; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte("v"))
	}
	all, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Fatalf("full scan returned %d", len(all))
	}
	tail, _ := db.Scan(bg, keys.EncodeUint64(40), nil)
	if len(tail) != 10 {
		t.Fatalf("tail scan returned %d", len(tail))
	}
	head, _ := db.Scan(bg, nil, keys.EncodeUint64(10))
	if len(head) != 10 {
		t.Fatalf("head scan returned %d", len(head))
	}
}

func TestScanSkipsTombstones(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	for i := 0; i < 20; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte("v"))
	}
	for i := 0; i < 20; i += 2 {
		db.Delete(bg, keys.EncodeUint64(uint64(i)))
	}
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d pairs, want 10", len(pairs))
	}
	for _, p := range pairs {
		if keys.DecodeUint64(p.Key)%2 != 1 {
			t.Fatalf("deleted key %d in scan", keys.DecodeUint64(p.Key))
		}
	}
}

func TestScanSeesMembufferContents(t *testing.T) {
	// The pre-scan drain must make membuffer-resident updates visible
	// (§3.2: "drain the MemBuffer in the Memtable before a scan").
	db := openTestDB(t, testConfig(t))
	db.Put(bg, keys.EncodeUint64(5), []byte("fresh"))
	// Immediately scan; the put is almost certainly still in the membuffer.
	pairs, err := db.Scan(bg, keys.EncodeUint64(0), keys.EncodeUint64(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || string(pairs[0].Value) != "fresh" {
		t.Fatalf("scan missed membuffer content: %v", pairs)
	}
}

func TestScanAcrossAllLevels(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 128 << 10
	db := openTestDB(t, cfg)
	const n = 3000
	for i := 0; i < n; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i)))
	}
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Fatalf("scan returned %d pairs, want %d", len(pairs), n)
	}
	for i, p := range pairs {
		if keys.DecodeUint64(p.Key) != uint64(i) || keys.DecodeUint64(p.Value) != uint64(i) {
			t.Fatalf("pair %d corrupt: %x -> %x", i, p.Key, p.Value)
		}
	}
}

func TestEmptyScan(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("scan of empty store returned %d pairs", len(pairs))
	}
}

func TestClosedOperations(t *testing.T) {
	db, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Put(bg, []byte("k"), []byte("v")); err != storage.ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := db.Get(bg, []byte("k")); err != storage.ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := db.Scan(bg, nil, nil); err != storage.ErrClosed {
		t.Fatalf("Scan after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	for i := 0; i < 10; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte("v"))
	}
	db.Delete(bg, keys.EncodeUint64(0))
	db.Get(bg, keys.EncodeUint64(1))
	db.Scan(bg, nil, nil)
	s := db.Stats()
	if s.Puts != 10 || s.Deletes != 1 || s.Gets != 1 || s.Scans != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MembufferHits+s.MemtableWrites != 11 {
		t.Fatalf("hit accounting: %+v", s)
	}
}

func TestDisableMembufferMode(t *testing.T) {
	// Fig 17's "No HT" ablation: classic single-level memory component.
	cfg := testConfig(t)
	cfg.DisableMembuffer = true
	db := openTestDB(t, cfg)
	for i := 0; i < 100; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte("v"))
	}
	if s := db.Stats(); s.MembufferHits != 0 || s.MemtableWrites != 100 {
		t.Fatalf("No-HT mode stats = %+v", s)
	}
	v, ok, _ := db.Get(bg, keys.EncodeUint64(50))
	if !ok || string(v) != "v" {
		t.Fatal("Get in No-HT mode failed")
	}
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil || len(pairs) != 100 {
		t.Fatalf("scan in No-HT mode: %d pairs, %v", len(pairs), err)
	}
}

// TestWaitDiskQuiesceEmptiesMembuffer: a quiesced store is a quiet one.
// WaitDiskQuiesce leaves the Membuffer empty, so with no writes no
// drainer can push the Memtable over its target and start a persist
// afterwards (DropPersist's persists come quickest).
func TestWaitDiskQuiesceEmptiesMembuffer(t *testing.T) {
	value := bytes.Repeat([]byte("x"), 64)
	for round := 0; round < 20; round++ {
		db, err := Open(Config{Dir: t.TempDir(), DropPersist: true, MemoryBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			if err := db.Put(bg, spreadKey(uint64(i)), value); err != nil {
				t.Fatal(err)
			}
		}
		db.WaitDiskQuiesce()
		persists := db.stats.persists.Load()
		if n := db.gen.Load().mbf.Len(); n != 0 {
			t.Fatalf("round %d: WaitDiskQuiesce left %d Membuffer entries", round, n)
		}
		time.Sleep(100 * time.Millisecond)
		if n, p := db.gen.Load().mbf.Len(), db.stats.persists.Load(); n != 0 || p != persists {
			t.Fatalf("round %d: 100 ms after quiescing, %d Membuffer entries and %d persists with no write, want none",
				round, n, p-persists)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDropPersistMode: Fig 17's memory-component mode discards each sealed
// Memtable. Across several persists no table is written and no flush
// counted, and every retired segment's file is gone: under the default
// class Buffered the directory holds at most the live segment, under
// None (the figures' class) no segment file at all. Close still flushes
// the last Memtable. Before the last Put the test quiesces the store,
// which drains the Membuffer and lets the persists settle, so that Put
// lands in a Memtable under its target: no persist runs after it, and a
// closing store starts none.
func TestDropPersistMode(t *testing.T) {
	for _, d := range []kv.Durability{kv.DurabilityBuffered, kv.DurabilityNone} {
		t.Run(d.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Config{Dir: dir, DropPersist: true, MemoryBytes: 64 << 10, Durability: d})
			if err != nil {
				t.Fatal(err)
			}
			files := func() (wals, tables []uint64) {
				t.Helper()
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					switch kind, num := storage.ParseFileName(e.Name()); kind {
					case storage.KindWAL:
						wals = append(wals, num)
					case storage.KindTable:
						tables = append(tables, num)
					}
				}
				return wals, tables
			}
			for i := 0; i < 5000; i++ {
				if err := db.Put(bg, spreadKey(uint64(i)), bytes.Repeat([]byte("x"), 64)); err != nil {
					t.Fatal(err)
				}
				if i%500 == 0 {
					if _, tables := files(); len(tables) != 0 {
						t.Fatalf("after %d puts: tables %v", i, tables)
					}
				}
			}
			waitPersists(t, db, 3)
			db.WaitDiskQuiesce()
			wals, tables := files()
			if len(tables) != 0 || db.Stats().Flushes != 0 {
				t.Fatalf("%d persists wrote tables %v, %d flushes", db.stats.persists.Load(), tables, db.Stats().Flushes)
			}
			live := db.gen.Load().mtb.walNum
			if d == kv.DurabilityNone && len(wals) != 0 || len(wals) > 1 || len(wals) == 1 && wals[0] != live {
				t.Fatalf("%v: segment files %v, live segment %d", d, wals, live)
			}
			if err := db.Put(bg, []byte("last"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if f := db.Stats().Flushes; f != 1 {
				t.Fatalf("Close flushed %d times, want the last Memtable once", f)
			}
		})
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 512 << 10
	db := openTestDB(t, cfg)
	const writers = 4
	const readers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := keys.EncodeUint64(uint64(w*perWriter + i))
				if err := db.Put(bg, k, keys.EncodeUint64(uint64(i))); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
					db.Get(bg, keys.EncodeUint64(rng.Uint64()%(writers*perWriter)))
				}
			}
		}(r)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writers*perWriter; i++ {
			// Spot-check convergence on a sample.
			if i%997 != 0 {
				continue
			}
			k := keys.EncodeUint64(uint64(i))
			for {
				if _, ok, err := db.Get(bg, k); ok || err != nil {
					break
				}
			}
		}
	}()
	wg.Add(0)
	<-done
	close(stop)
	wg.Wait()

	// Every key must be present with its final value.
	for w := 0; w < writers; w++ {
		for i := perWriter - 1; i >= 0; i -= 503 {
			k := keys.EncodeUint64(uint64(w*perWriter + i))
			v, ok, err := db.Get(bg, k)
			if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
				t.Fatalf("key %d/%d: %v %v %v", w, i, v, ok, err)
			}
		}
	}
}

// TestPutAllocationBudget is the fast path's allocation budget: a Buffered
// Put that completes in the Membuffer allocates one object, the pair that
// holds the Membuffer's copy of key and value — the WAL append builds no
// record and no header — and a Get that finds its key allocates the
// caller's copy of the value.
func TestPutAllocationBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20
	cfg.Durability = kv.DurabilityBuffered
	db := openTestDB(t, cfg)
	const n = 64
	var ks [n][]byte
	for i := range ks {
		ks[i] = spreadKey(uint64(i))
	}
	val := make([]byte, 256)
	i := 0
	put := func() {
		if err := db.Put(bg, ks[i%n], val); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range ks {
		put()
	}
	before := db.Stats()
	puts := testing.AllocsPerRun(2000, put)
	if after := db.Stats(); after.MemtableWrites != before.MemtableWrites || after.MembufferHits-before.MembufferHits < 2000 {
		t.Fatalf("Puts left the fast path: %d Memtable writes, %d Membuffer hits",
			after.MemtableWrites-before.MemtableWrites, after.MembufferHits-before.MembufferHits)
	}
	get := func() {
		if v, ok, err := db.Get(bg, ks[i%n]); err != nil || !ok || len(v) != len(val) {
			t.Fatalf("Get: %d bytes ok=%v err=%v", len(v), ok, err)
		}
		i++
	}
	gets := testing.AllocsPerRun(2000, get)
	t.Logf("a fast-path Put: %.2f allocations; a Get: %.2f", puts, gets)
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts: RCU reader handles are re-made")
	}
	if puts > 1 {
		t.Errorf("a fast-path Put: %.2f allocations, budget 1", puts)
	}
	if gets != 1 {
		t.Errorf("a Get that finds its key: %.2f allocations, want 1 (the caller's copy)", gets)
	}
}

// TestSlowPathPutAllocationBudget is the slow path's allocation budget: a
// Put whose Membuffer bucket is full allocates the value's clone and the
// Entry the Memtable keeps, and no Membuffer pair it would throw away.
// The drainer is parked on a claim so that the full bucket stays full.
func TestSlowPathPutAllocationBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20
	cfg.Durability = kv.DurabilityBuffered
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)
	claimed, release := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookDrainerClaimed, claimed, release)
	db.testHook.Store(&hook)
	t.Cleanup(func() { close(release) }) // before the Close openTestDB registered
	val := make([]byte, 256)
	if err := db.Put(bg, spreadKey(0), val); err != nil {
		t.Fatal(err)
	}
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("the background drainer never claimed a batch")
	}

	// Fill the Membuffer until a Put falls through: that key's bucket is
	// full of other keys, and stays so while nothing drains.
	var full []byte
	for i := uint64(1); full == nil; i++ {
		if i > 1<<16 {
			t.Fatal("no Put took the slow path")
		}
		before := db.Stats().MemtableWrites
		k := spreadKey(i)
		if err := db.Put(bg, k, val); err != nil {
			t.Fatal(err)
		}
		if db.Stats().MemtableWrites != before {
			full = k
		}
	}
	put := func() {
		if err := db.Put(bg, full, val); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats()
	puts := testing.AllocsPerRun(500, put)
	if after := db.Stats(); after.MemtableWrites-before.MemtableWrites != 501 || after.MembufferHits != before.MembufferHits {
		t.Fatalf("Puts left the slow path: %d Memtable writes, %d Membuffer hits",
			after.MemtableWrites-before.MemtableWrites, after.MembufferHits-before.MembufferHits)
	}
	t.Logf("a slow-path Put: %.2f allocations", puts)
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts: RCU reader handles are re-made")
	}
	if puts > 2 {
		t.Errorf("a slow-path Put: %.2f allocations, budget 2", puts)
	}
}

// TestWritesKeepNoCallerBuffer: Put, Delete and Apply keep no reference to
// the caller's key and value, on the Membuffer path and on the Memtable
// path alike. The test overwrites its buffers right after every write;
// Gets, an iterator (whose view seal drains the Membuffer into the
// Memtable), Gets from the Memtable and Gets after a persist all return
// what was written.
func TestWritesKeepNoCallerBuffer(t *testing.T) {
	for _, disable := range []bool{false, true} {
		cfg := testConfig(t)
		cfg.DisableMembuffer = disable
		cfg.Durability = kv.DurabilityBuffered
		db := openTestDB(t, cfg)
		const n = 400
		key, val := make([]byte, 8), make([]byte, 48)
		want := make(map[string][]byte)
		for i := 0; i < n; i++ {
			k := spreadKey(uint64(i))
			copy(key, k)
			for j := range val {
				val[j] = byte(i)
			}
			var err error
			switch i % 4 {
			case 0, 1:
				err = db.Put(bg, key, val)
				want[string(k)] = bytes.Clone(val)
			case 2:
				if err = db.Put(bg, key, val); err == nil {
					err = db.Delete(bg, key)
				}
			case 3:
				b := kv.NewBatch()
				b.Put(key, val)
				err = db.Apply(bg, b)
				want[string(k)] = bytes.Clone(val)
			}
			if err != nil {
				t.Fatal(err)
			}
			for j := range key {
				key[j] = 0xff
			}
			for j := range val {
				val[j] = 0xee
			}
		}
		check := func(stage string) {
			t.Helper()
			for i := 0; i < n; i++ {
				k := spreadKey(uint64(i))
				v, ok, err := db.Get(bg, k)
				if w, live := want[string(k)]; err != nil || ok != live || !bytes.Equal(v, w) {
					t.Fatalf("membuffer disabled %v, %s: Get(%d) = %x ok=%v err=%v, want %x", disable, stage, i, v, ok, err, w)
				}
			}
		}
		check("fresh")
		it, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for ok := it.First(); ok; ok = it.Next() {
			if w := want[string(it.Key())]; !bytes.Equal(it.Value(), w) {
				t.Fatalf("membuffer disabled %v: iterator at %x: %x, want %x", disable, it.Key(), it.Value(), w)
			}
			seen++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if seen != len(want) {
			t.Fatalf("membuffer disabled %v: iterator saw %d keys, want %d", disable, seen, len(want))
		}
		check("drained")
		if err := db.persistOnce(); err != nil {
			t.Fatal(err)
		}
		check("persisted")
	}
}
