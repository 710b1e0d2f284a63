package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemoryBytes: 1 << 20}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete(bg, spreadKey(7))

	// Simulate a crash: sync the active WAL but skip the graceful flush.
	g := db.gen.Load()
	if err := g.mtb.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon the DB without Close (goroutines die with the test process;
	// the store is reopened from disk state only).
	db.Shut()
	db.store.Close()

	db2, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 500; i++ {
		v, ok, err := db2.Get(bg, spreadKey(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if ok {
				t.Fatal("deleted key resurrected by recovery")
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after recovery: %q, %v", i, v, ok)
		}
	}
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		db.Put(bg, spreadKey(uint64(i)), keys.EncodeUint64(uint64(i)))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// After a clean close, no WAL segments should remain (all flushed).
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if kind, _ := storage.ParseFileName(e.Name()); kind == storage.KindWAL {
			t.Fatalf("WAL %s left after clean close", e.Name())
		}
	}

	db2, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 300; i++ {
		v, ok, _ := db2.Get(bg, spreadKey(uint64(i)))
		if !ok || keys.DecodeUint64(v) != uint64(i) {
			t.Fatalf("key %d lost across clean restart", i)
		}
	}
}

func TestRecoveryWithTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		db.Put(bg, spreadKey(uint64(i)), []byte("v"))
	}
	g := db.gen.Load()
	walPath := storage.WALFileName(dir, g.mtb.walNum)
	g.mtb.wal.Sync()
	db.Shut()
	db.store.Close()

	// Tear the WAL tail: recovery must keep every fully-written record.
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// At most the torn final record may be missing.
	missing := 0
	for i := 0; i < 100; i++ {
		if _, ok, _ := db2.Get(bg, spreadKey(uint64(i))); !ok {
			missing++
		}
	}
	if missing > 1 {
		t.Fatalf("%d records lost to a 3-byte tear", missing)
	}
}

func TestSeqMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		db.Put(bg, spreadKey(uint64(i)), []byte("v"))
	}
	db.Close()

	db2, _ := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	defer db2.Close()
	seqBefore := db2.Seq()
	if seqBefore == 0 {
		t.Fatal("restart must resume from the persisted sequence number")
	}
	// Membuffer writes take no seq (assigned at drain, §4.2); a scan does.
	db2.Put(bg, []byte("new"), []byte("v"))
	if _, err := db2.Scan(bg, nil, nil); err != nil {
		t.Fatal(err)
	}
	if db2.Seq() <= seqBefore {
		t.Fatal("sequence numbers must advance after restart")
	}
	// Overwrites after restart must win over recovered data.
	db2.Put(bg, spreadKey(50), []byte("post-restart"))
	v, ok, _ := db2.Get(bg, spreadKey(50))
	if !ok || string(v) != "post-restart" {
		t.Fatalf("post-restart overwrite lost: %q %v", v, ok)
	}
}

// crashDB simulates a crash: syncs the active WAL (so the log is on
// disk), then abandons the instance without the graceful close-time flush.
func crashDB(t *testing.T, db *DB) {
	t.Helper()
	g := db.gen.Load()
	if err := g.mtb.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Shut()
	db.store.Close()
}

// TestBatchIsOneWALRecord proves the amortization claim at the log level:
// a WriteBatch with N operations produces exactly ONE WAL record, and the
// whole batch recovers after a crash.
func TestBatchIsOneWALRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	const n = 100
	b := kv.NewBatch()
	for i := 0; i < n; i++ {
		b.Put(spreadKey(uint64(i)), []byte(fmt.Sprintf("b%d", i)))
	}
	b.Delete(spreadKey(3))
	if err := db.Apply(bg, b); err != nil {
		t.Fatal(err)
	}
	walPath := storage.WALFileName(dir, db.gen.Load().mtb.walNum)
	crashDB(t, db)

	records, ops := 0, 0
	err = wal.ReplayAll(walPath, func(rec []byte) error {
		records++
		if !kv.IsBatchRecord(rec) {
			t.Fatalf("record %d is not a batch record", records)
		}
		return kv.ForEachOp(rec, func(keys.Kind, []byte, []byte) error {
			ops++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != 1 {
		t.Fatalf("batch of %d ops produced %d WAL records, want exactly 1", n+1, records)
	}
	if ops != n+1 {
		t.Fatalf("batch record carries %d ops, want %d", ops, n+1)
	}

	db2, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		v, ok, err := db2.Get(bg, spreadKey(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if ok {
				t.Fatal("batched delete lost in recovery")
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("b%d", i) {
			t.Fatalf("batched key %d after crash: %q %v", i, v, ok)
		}
	}
}

// TestBatchRecoversAllOrNothing tears the WAL inside the batch record and
// verifies recovery applies NONE of the batch — while the preceding
// single-op record survives intact.
func TestBatchRecoversAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(bg, []byte("anchor"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch()
	for i := 0; i < 50; i++ {
		b.Put(spreadKey(uint64(i)), []byte("batched"))
	}
	if err := db.Apply(bg, b); err != nil {
		t.Fatal(err)
	}
	walPath := storage.WALFileName(dir, db.gen.Load().mtb.walNum)
	crashDB(t, db)

	// Tear the tail mid-record: the torn record is the batch.
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, ok, _ := db2.Get(bg, []byte("anchor")); !ok || string(v) != "kept" {
		t.Fatalf("pre-batch record lost: %q %v", v, ok)
	}
	for i := 0; i < 50; i++ {
		if _, ok, _ := db2.Get(bg, spreadKey(uint64(i))); ok {
			t.Fatalf("torn batch partially applied: key %d visible", i)
		}
	}
}

// TestDurabilityNoneCleanRestart: writes of class None have no log
// record, and a clean close still flushes them to disk.
func TestDurabilityNoneCleanRestart(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), MemoryBytes: 1 << 20, Durability: kv.DurabilityNone}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		db.Put(bg, spreadKey(uint64(i)), []byte("v"))
	}
	if st := db.Stats(); st.AckedSeq != 0 {
		t.Fatalf("None-class puts appended %d log records", st.AckedSeq)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 200; i++ {
		if _, ok, _ := db2.Get(bg, spreadKey(uint64(i))); !ok {
			t.Fatalf("key %d lost across clean restart", i)
		}
	}
}

// TestLiveSegmentWithoutFile: a segment's file is created by its first
// write-out, so right after a persist the live segment — the one the
// manifest's log number names — has no file. A checkpoint taken then, and
// a recovery after a crash then, both find the flushed data and replay
// nothing.
func TestLiveSegmentWithoutFile(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemoryBytes: 1 << 20}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.persistOnce(); err != nil {
		t.Fatal(err)
	}
	live := storage.WALFileName(dir, db.gen.Load().mtb.walNum)
	if _, err := os.Stat(live); !os.IsNotExist(err) {
		t.Fatalf("the live segment has a file before any record: %v", err)
	}
	if got := db.store.LogNum(); got != db.gen.Load().mtb.walNum {
		t.Fatalf("manifest log number %d, live segment %d", got, db.gen.Load().mtb.walNum)
	}
	cp := filepath.Join(t.TempDir(), "cp")
	if err := db.Checkpoint(bg, cp); err != nil {
		t.Fatalf("Checkpoint over a live segment with no file: %v", err)
	}
	db.CrashForTesting()
	for _, d := range []string{cp, dir} {
		db2, err := Open(Config{Dir: d, MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatalf("reopen %s: %v", d, err)
		}
		for i := 0; i < n; i++ {
			if _, ok, err := db2.Get(bg, spreadKey(uint64(i))); err != nil || !ok {
				t.Fatalf("%s: key %d lost: %v", d, i, err)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir should fail")
	}
	if _, err := Open(Config{DropPersist: true}); err == nil {
		t.Fatal("Open of a DropPersist store without Dir should fail")
	}
}

func TestOpenBadDir(t *testing.T) {
	// A file where the directory should be.
	dir := t.TempDir()
	path := filepath.Join(dir, "blocked")
	os.WriteFile(path, []byte("x"), 0o644)
	if _, err := Open(Config{Dir: path}); err == nil {
		t.Fatal("Open on a file path should fail")
	}
}

// sealWithLaterWrites writes earlier acked Puts, then starts a persist
// whose seal a drainer parked inside its read section holds in its grace
// period, and while it waits writes later fast-path Puts into the
// successor's segment: more than a staging buffer of them, so that
// segment writes some out while the sealed one still stages every
// earlier record. finish lets the persist complete.
func sealWithLaterWrites(t *testing.T, db *DB) (earlier, later [][]byte, finish func()) {
	t.Helper()
	claimed, release := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookDrainerClaimed, claimed, release)
	db.testHook.Store(&hook)
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // before the store's Close, on every path
	for i := 0; i < 50; i++ {
		k := spreadKey(uint64(i))
		if err := db.Put(bg, k, []byte(fmt.Sprintf("earlier-%d", i))); err != nil {
			t.Fatal(err)
		}
		earlier = append(earlier, k)
	}
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("the background drainer never claimed a batch")
	}
	sealed := db.gen.Load().mtb
	persisted := make(chan error, 1)
	go func() { persisted <- db.persistOnce() }()
	waitFor(t, "the persist seal to install its successor", func() bool {
		return db.gen.Load().mtb != sealed
	})
	finish = func() {
		unpark()
		if err := <-persisted; err != nil {
			t.Error(err)
		}
		db.testHook.Store(nil)
	}
	// A fast-path Put finishes during the grace period; one the bucket
	// refused would wait for the seal, and for the parked drainer.
	hits := db.stats.membufferHits.Load()
	value := make([]byte, 4<<10)
	for i := 0; i < 20; i++ {
		k := spreadKey(uint64(1000 + i))
		if err := db.Put(bg, k, value); err != nil {
			t.Fatal(err)
		}
		later = append(later, k)
	}
	if got := db.stats.membufferHits.Load() - hits; got != 20 {
		t.Fatalf("%d of 20 later Puts took the fast path", got)
	}
	if !db.pauseWriters.Load() {
		t.Fatal("the seal left its grace period while the drainer was parked")
	}
	return earlier, later, finish
}

// present reopens dir and counts the keys of ks it holds.
func present(t *testing.T, dir string, ks [][]byte) int {
	t.Helper()
	db, err := Open(Config{Dir: dir, MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 0
	for _, k := range ks {
		if _, ok, err := db.Get(bg, k); err != nil {
			t.Fatal(err)
		} else if ok {
			n++
		}
	}
	return n
}

// TestKillDuringSealKeepsAckedPrefix: the files a kill -9 leaves while a
// persist seal waits out its grace period, with the successor segment
// already writing to its file, recover a prefix of the acked writes: a
// later write present means every earlier one is. The sealed segment
// still stages every earlier write when the successor first writes out:
// unless the successor writes it out first, the copy holds later writes
// and no earlier one.
func TestKillDuringSealKeepsAckedPrefix(t *testing.T) {
	cfg := testConfig(t)
	cfg.DrainThreads = 1
	cfg.MemoryBytes = 8 << 20 // the later writes fit the Membuffer
	db := openTestDB(t, cfg)
	earlier, later, finish := sealWithLaterWrites(t, db)
	killed := t.TempDir()
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(cfg.Dir, ent.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(killed, ent.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	finish()
	e, l := present(t, killed, earlier), present(t, killed, later)
	if l == 0 {
		t.Fatal("no later write reached a file: the window was not open")
	}
	if e != len(earlier) {
		t.Fatalf("recovered %d/%d later writes but only %d/%d earlier acked ones: a middle slice was lost",
			l, len(later), e, len(earlier))
	}
}

// TestCheckpointDuringSealSkipsPersist: a checkpoint taken while a
// persist seal is parked returns without waiting for the persist, and
// its copy holds every write acked before the call.
func TestCheckpointDuringSealSkipsPersist(t *testing.T) {
	cfg := testConfig(t)
	cfg.DrainThreads = 1
	cfg.MemoryBytes = 8 << 20
	db := openTestDB(t, cfg)
	earlier, later, finish := sealWithLaterWrites(t, db)
	cp := filepath.Join(t.TempDir(), "cp")
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint(bg, cp) }()
	select {
	case err := <-done:
		finish()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the checkpoint waited for the parked persist")
	}
	if e, l := present(t, cp, earlier), present(t, cp, later); e != len(earlier) || l != len(later) {
		t.Fatalf("checkpoint holds %d/%d earlier and %d/%d later acked writes, want all", e, len(earlier), l, len(later))
	}
}
