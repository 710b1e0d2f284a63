package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
	if g.mtb.wal != nil {
		if err := g.mtb.wal.Sync(); err != nil {
			t.Fatal(err)
		}
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
	if g.mtb.wal != nil {
		if err := g.mtb.wal.Sync(); err != nil {
			t.Fatal(err)
		}
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

func TestDisableWALMode(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemoryBytes: 1 << 20, DisableWAL: true}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		db.Put(bg, spreadKey(uint64(i)), []byte("v"))
	}
	// No WAL files should exist.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if kind, _ := storage.ParseFileName(e.Name()); kind == storage.KindWAL {
			t.Fatalf("WAL %s created with DisableWAL", e.Name())
		}
	}
	// Clean close still flushes to disk.
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
			t.Fatalf("key %d lost across clean DisableWAL restart", i)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir should fail")
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
