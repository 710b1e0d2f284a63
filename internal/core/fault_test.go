package core

import (
	"errors"
	"testing"
	"time"

	"flodb/internal/diskenv"
)

// TestFlushFaultSurfacesOnWrites injects a failure into the persist path
// and verifies the store degrades cleanly: the error reaches writers and
// Close, and nothing panics or hangs.
func TestFlushFaultSurfacesOnWrites(t *testing.T) {
	boom := errors.New("injected flush failure")
	fault := &diskenv.FaultPoint{}
	fault.Arm(boom, 1)

	cfg := testConfig(t)
	cfg.MemoryBytes = 32 << 10
	cfg.FlushFault = fault
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

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
	if fault.Fired() != 1 {
		t.Fatalf("fault fired %d times", fault.Fired())
	}
	// Reads still work on the data that is in memory/disk.
	if _, _, err := db.Get(bg, spreadKey(0)); err != nil {
		t.Fatalf("reads should survive a persist failure: %v", err)
	}
	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want injected fault", err)
	}
}
