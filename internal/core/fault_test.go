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

// TestPersistLimiterBoundsThroughput checks that a limiter on the persist
// path actually gates steady-state writes (the Fig 9 disk model).
func TestPersistLimiterBoundsThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := testConfig(t)
	cfg.MemoryBytes = 64 << 10
	cfg.DisableWAL = true
	cfg.PersistLimiter = diskenv.NewLimiter(64 << 10) // 64 KiB/s: very slow disk
	db := openTestDB(t, cfg)

	start := time.Now()
	written := 0
	// Write ~384 KiB of distinct keys. The memory component absorbs at most
	// ~208 KiB of it (a 16 KiB Membuffer, a Memtable at twice its ~48 KiB
	// target, the sealed one being persisted) and the limiter's burst 64
	// KiB more, so at 64 KiB/s backpressure must make this take >= ~1.7s.
	const total = 384 << 10
	for i := 0; time.Since(start) < 10*time.Second; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
		written += 264
		if written >= total {
			break
		}
	}
	elapsed := time.Since(start)
	if written >= total && elapsed < time.Second {
		t.Fatalf("limiter ignored: wrote %d bytes in %v", written, elapsed)
	}
	t.Logf("wrote %d bytes in %v under a 64KiB/s persist limiter", written, elapsed)
}
