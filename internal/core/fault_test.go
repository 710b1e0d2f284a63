package core

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/kv"
)

// TestFlushFaultSurfacesOnWrites injects a failure into the persist path
// and verifies the store degrades cleanly: the error reaches writers
// (Put and Apply), Snapshot, Sync, Checkpoint and Close, and nothing
// panics or hangs.
func TestFlushFaultSurfacesOnWrites(t *testing.T) {
	boom := errors.New("injected flush failure")
	var fired atomic.Int32
	fault := func(p hookPoint) error {
		if p != hookPersisting || fired.Add(1) != 1 {
			return nil
		}
		return boom
	}

	cfg := testConfig(t)
	cfg.MemoryBytes = 32 << 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.testHook.Store(&fault)

	// Write until the persist path trips the fault and surfaces it.
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for i := 0; ; i++ {
		lastErr = db.Put(bg, spreadKey(uint64(i)), make([]byte, 128))
		if lastErr != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fault never surfaced to writers")
		}
	}
	if !errors.Is(lastErr, boom) {
		t.Fatalf("writer saw %v, want injected fault", lastErr)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("fault fired %d times", n)
	}
	// Every call that would build on the persisted state returns it too.
	b := kv.NewBatch()
	b.Put(spreadKey(0), []byte("v"))
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Apply", func() error { return db.Apply(bg, b) }},
		{"Snapshot", func() error { _, err := db.Snapshot(bg); return err }},
		{"Sync", func() error { return db.Sync(bg) }},
		{"Checkpoint", func() error { return db.Checkpoint(bg, filepath.Join(t.TempDir(), "ckpt")) }},
	} {
		if err := c.call(); !errors.Is(err, boom) {
			t.Errorf("%s after the persist failure = %v, want the injected fault", c.name, err)
		}
	}
	// Reads still work on the data that is in memory/disk.
	if _, _, err := db.Get(bg, spreadKey(0)); err != nil {
		t.Fatalf("reads should survive a persist failure: %v", err)
	}
	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want injected fault", err)
	}
}
