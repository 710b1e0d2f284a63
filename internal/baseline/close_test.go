package baseline

import (
	"context"
	"errors"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// TestLevelDBCloseStopsLeaderBeforeFlush parks LevelDB's write leader on a
// queued request whose caller has already given up, then closes the
// store. Close must stop the leader before its final flush: a write the
// leader applies concurrently with that flush races it (under -race) and
// lands in a memtable nothing persists. Without a WAL the final flush is
// the write's only way to disk.
func TestLevelDBCloseStopsLeaderBeforeFlush(t *testing.T) {
	dir := t.TempDir()
	db, err := NewLevelDB(Config{Dir: dir, MemBytes: 1 << 20, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(bg, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock() // the leader parks on mu once it holds the request
	ctx, cancel := context.WithCancel(bg)
	putErr := make(chan error, 1)
	go func() { putErr <- db.Put(ctx, []byte("b"), []byte("2")) }()
	for db.Stats().Puts < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	for len(db.writeCh) > 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-putErr; !errors.Is(err, context.Canceled) {
		db.mu.Unlock()
		t.Fatalf("cancelled Put = %v, want context.Canceled", err)
	}

	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	time.Sleep(20 * time.Millisecond)
	db.mu.Unlock()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}

	db, err = NewLevelDB(Config{Dir: dir, MemBytes: 1 << 20, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range []string{"a", "b"} {
		if _, ok, err := db.Get(bg, []byte(k)); err != nil || !ok {
			t.Fatalf("after reopen Get(%s) = %v %v, want the value Close flushed", k, ok, err)
		}
	}
}

// TestLevelDBCloseWakesParkedLeader parks the write leader in
// waitRoomLocked — a full memtable behind a sealed one the flush loop
// never retires — and closes the store. Close stops the flush loop before
// it waits for the leader, so it must wake the leader itself, or it
// waits forever; the parked write fails with kv.ErrClosed.
func TestLevelDBCloseWakesParkedLeader(t *testing.T) {
	db, err := NewLevelDB(Config{Dir: t.TempDir(), MemBytes: 64 << 10, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.imm = &memHandle{mem: newSkipMem()} // no flush is scheduled for it
	for i := uint64(0); db.mem.mem.ApproxBytes() < db.cfg.MemBytes; i++ {
		db.mem.mem.Insert(spread(i), i+1, keys.KindSet, make([]byte, 256))
	}
	db.mu.Unlock()

	putErr := make(chan error, 1)
	go func() { putErr <- db.Put(bg, []byte("k"), []byte("v")) }()
	for db.Stats().Puts < 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)

	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a write leader parked for room")
	}
	if err := <-putErr; !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("parked Put = %v, want kv.ErrClosed", err)
	}
}
