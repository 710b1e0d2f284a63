package flodb_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"flodb"
	"flodb/internal/obs"
)

// Example demonstrates the core public API: open, write, read, scan,
// delete, close.
func Example() {
	dir := filepath.Join(os.TempDir(), "flodb-example")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put(bg, []byte("a"), []byte("1"))
	db.Put(bg, []byte("b"), []byte("2"))
	db.Put(bg, []byte("c"), []byte("3"))
	db.Delete(bg, []byte("b"))

	if v, found, _ := db.Get(bg, []byte("a")); found {
		fmt.Printf("a=%s\n", v)
	}
	pairs, _ := db.Scan(bg, []byte("a"), []byte("z"))
	for _, p := range pairs {
		fmt.Printf("%s=%s\n", p.Key, p.Value)
	}
	// Output:
	// a=1
	// a=1
	// c=3
}

// ExampleOpen shows tuning the store with functional options — the memory
// budget is the paper's central knob: a larger budget lets the store
// absorb longer write bursts at hash-table speed.
func ExampleOpen() {
	dir := filepath.Join(os.TempDir(), "flodb-example-open")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir,
		flodb.WithMemory(128<<20), // 128 MiB total: 1/4 Membuffer, 3/4 Memtable
		flodb.WithDrainThreads(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Println(db.Put(bg, []byte("k"), []byte("v")))
	// Output:
	// <nil>
}

// ExampleDB_NewIterator streams a range through a cursor: pairs are read
// in place as it moves, so the same loop handles ranges far larger than
// memory.
func ExampleDB_NewIterator() {
	dir := filepath.Join(os.TempDir(), "flodb-example-iter")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put(bg, []byte("user:1"), []byte("ada"))
	db.Put(bg, []byte("user:2"), []byte("grace"))
	db.Put(bg, []byte("user:3"), []byte("edsger"))

	it, err := db.NewIterator(bg, []byte("user:"), []byte("user:\xff"))
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		fmt.Printf("%s=%s\n", it.Key(), it.Value())
	}
	if err := it.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// user:1=ada
	// user:2=grace
	// user:3=edsger
}

// ExampleDB_Apply commits several mutations atomically: one WAL record,
// all-or-nothing recovery, never observed partially by scans.
func ExampleDB_Apply() {
	dir := filepath.Join(os.TempDir(), "flodb-example-batch")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	b := flodb.NewWriteBatch()
	b.Put([]byte("acct:alice"), []byte("90"))
	b.Put([]byte("acct:bob"), []byte("110"))
	if err := db.Apply(bg, b); err != nil {
		log.Fatal(err)
	}

	v, _, _ := db.Get(bg, []byte("acct:bob"))
	fmt.Printf("bob=%s after %d-op batch\n", v, b.Len())
	// Output:
	// bob=110 after 2-op batch
}

// ExampleDB_Sync shows the batch-load durability pattern: stream writes
// at memory speed under the Buffered default, then raise one durability
// barrier that promotes everything acknowledged so far — one fsync for
// the whole load instead of one per write. A single urgent write can
// instead demand its own group-committed barrier with flodb.WithSync().
func ExampleDB_Sync() {
	dir := filepath.Join(os.TempDir(), "flodb-example-sync")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 1000; i++ {
		// Buffered: logged, acknowledged without waiting for the disk.
		if err := db.Put(bg, []byte(fmt.Sprintf("row:%04d", i)), []byte("loaded")); err != nil {
			log.Fatal(err)
		}
	}
	// The barrier: every write acknowledged above is now crash-durable.
	if err := db.Sync(bg); err != nil {
		log.Fatal(err)
	}
	// An urgent single write can pay for its own barrier instead.
	if err := db.Put(bg, []byte("commit-marker"), []byte("done"), flodb.WithSync()); err != nil {
		log.Fatal(err)
	}

	s := db.Stats()
	fmt.Printf("no acked write left behind: %v\n", s.DurableSeq == s.AckedSeq)
	fmt.Printf("fsyncs stayed O(1), not O(writes): %v\n", s.WALSyncs < 10)
	// Output:
	// no acked write left behind: true
	// fsyncs stayed O(1), not O(writes): true
}

// ExampleDB_Snapshot pins a repeatable-read view: reads through the
// handle keep seeing the state at Snapshot time, however many writes land
// afterwards — the multi-request consistency a session pins itself to.
func ExampleDB_Snapshot() {
	dir := filepath.Join(os.TempDir(), "flodb-example-snapshot")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put(bg, []byte("balance"), []byte("100"))

	snap, err := db.Snapshot(bg)
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()

	db.Put(bg, []byte("balance"), []byte("250")) // later write

	old, _, _ := snap.Get(bg, []byte("balance"))
	live, _, _ := db.Get(bg, []byte("balance"))
	fmt.Printf("snapshot=%s live=%s\n", old, live)
	// Output:
	// snapshot=100 live=250
}

// ExampleDB_Checkpoint takes an online, openable copy of the store —
// hard-linked sstables plus the WAL tail — suitable for backups and for
// seeding replicas. The source stays open and serving throughout.
func ExampleDB_Checkpoint() {
	dir := filepath.Join(os.TempDir(), "flodb-example-checkpoint")
	ckdir := dir + "-backup"
	os.RemoveAll(dir)
	os.RemoveAll(ckdir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put(bg, []byte("k"), []byte("v"))
	if err := db.Checkpoint(bg, ckdir); err != nil {
		log.Fatal(err)
	}

	backup, err := flodb.Open(ckdir) // the checkpoint is a real store
	if err != nil {
		log.Fatal(err)
	}
	defer backup.Close()
	v, found, _ := backup.Get(bg, []byte("k"))
	fmt.Printf("backup has k=%s (found=%v)\n", v, found)
	// Output:
	// backup has k=v (found=true)
}

// ExampleDB_NewIterator_deadline bounds a scan with a context deadline: a
// slow consumer (or an oversized range) is cut off promptly, and the
// context error is reported through the iterator's Err.
func ExampleDB_NewIterator_deadline() {
	dir := filepath.Join(os.TempDir(), "flodb-example-deadline")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 10000; i++ {
		db.Put(bg, []byte(fmt.Sprintf("k%08d", i)), []byte("v"))
	}

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	it, err := db.NewIterator(ctx, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if n++; n == 100 {
			cancel() // in production: a deadline firing mid-scan
		}
	}
	fmt.Printf("stopped early: %v (read %v pairs before the full 10000)\n",
		errors.Is(it.Err(), context.Canceled), n < 10000)
	// Output:
	// stopped early: true (read true pairs before the full 10000)
}

// ExampleDB_blockCache sizes the two read-path caches: the block cache
// (parsed sstable blocks, byte-budgeted) and the table cache (open
// sstable readers — one fd plus a parsed index and bloom filter each).
// Warm reads skip the disk read and the block decode; Stats reports the
// funnel's hit rates.
func ExampleDB_blockCache() {
	dir := filepath.Join(os.TempDir(), "flodb-example-blockcache")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir,
		flodb.WithBlockCacheSize(8<<20),  // 8 MiB of parsed blocks
		flodb.WithTableCacheCapacity(64), // at most 64 open readers
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 1000; i++ {
		if err := db.Put(bg, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			log.Fatal(err)
		}
	}
	if _, _, err := db.Get(bg, []byte("k0500")); err != nil {
		log.Fatal(err)
	}
	s := db.Stats()
	// A fresh store served everything from the memory component, so the
	// caches saw no disk traffic yet — the counters exist either way.
	fmt.Println("block cache ok:", s.BlockCacheHits+s.BlockCacheMisses >= 0)
	fmt.Println("table cache ok:", s.TableCacheHits+s.TableCacheMisses >= 0)
	// Output:
	// block cache ok: true
	// table cache ok: true
}

// ExampleDB_metrics shows the observability surface: every operation is
// recorded in per-op latency histograms and the counter registry, and
// TelemetrySnapshot freezes the whole thing — the same snapshot flodbd
// serves at /metrics.
func ExampleDB_metrics() {
	dir := filepath.Join(os.TempDir(), "flodb-example-metrics")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 10; i++ {
		if err := db.Put(bg, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			log.Fatal(err)
		}
	}
	if _, _, err := db.Get(bg, []byte("k03")); err != nil {
		log.Fatal(err)
	}

	snap := db.TelemetrySnapshot()
	ops := obs.OpQuantiles(snap) // p50/p90/p99/p999 per op, keyed "put", "get", ...
	fmt.Println("put count:", ops["put"].Count)
	fmt.Println("get count:", ops["get"].Count)
	fmt.Println("put p99 recorded:", ops["put"].P99 > 0)
	for _, m := range snap.Metrics {
		if m.Name == "flodb_puts_total" {
			fmt.Println("flodb_puts_total:", m.Value)
		}
	}
	// Output:
	// put count: 10
	// get count: 1
	// put p99 recorded: true
	// flodb_puts_total: 10
}
