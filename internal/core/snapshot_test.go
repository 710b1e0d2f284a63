package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"flodb/internal/kv"
	"flodb/internal/storage"
)

// TestSnapshotDoesNotFlush pins the O(1) design: taking a snapshot
// seals the Membuffer (a generation switch, same as a master scan) but
// must NOT force the memtable to disk. The old design paid one flush
// per snapshot; this test is the regression fence against it coming
// back.
func TestSnapshotDoesNotFlush(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	for i := uint64(0); i < 500; i++ {
		if err := db.Put(bg, spreadKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats().Flushes
	for i := 0; i < 5; i++ {
		snap, err := db.Snapshot(bg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := snap.Get(bg, spreadKey(1)); err != nil {
			t.Fatal(err)
		}
		snap.Close()
	}
	if after := db.Stats().Flushes; after != before {
		t.Fatalf("5 snapshots forced %d flushes; snapshots must be O(1), not drain-and-flush", after-before)
	}
}

// TestSnapshotRepeatableUnderConcurrentOverwrites hammers every key
// with overwrites from four writers while four readers repeatedly read
// through a pinned snapshot: every snapshot read must return the
// pre-snapshot value, every live read a post-snapshot one. This is the
// version-chain machinery under contention — run it with -race.
func TestSnapshotRepeatableUnderConcurrentOverwrites(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	const nKeys = 128
	for i := uint64(0); i < nKeys; i++ {
		if err := db.Put(bg, spreadKey(i), []byte(fmt.Sprintf("base-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Snapshot(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := uint64(0); i < nKeys; i++ {
					if err := db.Put(bg, spreadKey(i), []byte("hot")); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 50; round++ {
				for i := uint64(0); i < nKeys; i++ {
					v, ok, err := snap.Get(bg, spreadKey(i))
					if err != nil || !ok {
						t.Errorf("snapshot Get(%d) = %v %v", i, ok, err)
						return
					}
					if want := fmt.Sprintf("base-%d", i); string(v) != want {
						t.Errorf("snapshot Get(%d) = %q, want %q: post-snapshot write leaked in", i, v, want)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	// The live view sees the overwrites.
	if v, ok, err := db.Get(bg, spreadKey(0)); err != nil || !ok || string(v) != "hot" {
		t.Fatalf("live Get = %q %v %v, want hot", v, ok, err)
	}
}

// TestSnapshotCloseUnpinsVersionChains verifies the memory-cost side of
// the contract: while a snapshot is open, overwritten keys keep their
// displaced version chained; once every snapshot closes, the next
// overwrite prunes the chain back to a single version (§3.2's
// single-versioned memory component is restored).
func TestSnapshotCloseUnpinsVersionChains(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	key := spreadKey(7)
	if err := db.Put(bg, key, []byte("base")); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot(bg)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite until the displaced version lands in the skiplist (the
	// Membuffer drains in the background, so poll).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := db.Put(bg, key, []byte("next")); err != nil {
			t.Fatal(err)
		}
		if e, ok := db.gen.Load().mtb.list.Get(key); ok && e.PrevVersion() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("displaced version never chained while snapshot open")
		}
		time.Sleep(time.Millisecond)
	}
	if v, ok, err := snap.Get(bg, key); err != nil || !ok || string(v) != "base" {
		t.Fatalf("snapshot Get = %q %v %v, want base", v, ok, err)
	}
	snap.Close()

	// With no bounds active, overwrites prune: poll until the chain is
	// back to one version.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := db.Put(bg, key, []byte("final")); err != nil {
			t.Fatal(err)
		}
		e, ok := db.gen.Load().mtb.list.Get(key)
		if ok && e.PrevVersion() == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("version chain not pruned after snapshot close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManySnapshotsBoundChainLength opens K snapshots across a write
// history and checks a hot key's chain never exceeds K+1 versions —
// the retain() guarantee surfaced at the store level.
func TestManySnapshotsBoundChainLength(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	key := spreadKey(3)
	const snaps = 4
	var handles []interface{ Close() error }
	for s := 0; s < snaps; s++ {
		if err := db.Put(bg, key, []byte(fmt.Sprintf("epoch-%d", s))); err != nil {
			t.Fatal(err)
		}
		snap, err := db.Snapshot(bg)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, snap)
	}
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	for i := 0; i < 200; i++ {
		if err := db.Put(bg, key, []byte("hot")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the overwrites to drain into the skiplist, then measure
	// the chain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if e, ok := db.gen.Load().mtb.list.Get(key); ok && string(e.Value) == "hot" {
			n := 0
			for ; e != nil; e = e.PrevVersion() {
				n++
			}
			if n > snaps+1 {
				t.Fatalf("chain length %d with %d snapshots open, want <= %d", n, snaps, snaps+1)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overwrites never reached the skiplist")
		}
		if err := db.Put(bg, key, []byte("hot")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedSnapshotIteratorKeepsLiveTables opens an iterator on a Closed
// snapshot whose Version is no longer current. The call must fail with
// ErrSnapshotReleased without touching the view's references: a retain
// after the handle's release would revive the dead Version, and the
// release after the failed check would drop its tables' references a
// second time, unlinking tables the current Version still lists.
func TestClosedSnapshotIteratorKeepsLiveTables(t *testing.T) {
	cfg := testConfig(t)
	cfg.Storage.L0CompactionTrigger = 100 // every flush stays an L0 table
	db := openTestDB(t, cfg)
	const perRound = 50
	write := func(round uint64) {
		t.Helper()
		for i := round * perRound; i < (round+1)*perRound; i++ {
			if err := db.Put(bg, spreadKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.persistOnce(); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	write(1)
	snap, err := db.Snapshot(bg)
	if err != nil {
		t.Fatal(err)
	}
	write(2) // the snapshot's Version is superseded
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if it, err := snap.NewIterator(bg, nil, nil); !errors.Is(err, kv.ErrSnapshotReleased) {
		if it != nil {
			it.Close()
		}
		t.Fatalf("NewIterator on a closed snapshot: %v, want ErrSnapshotReleased", err)
	}

	v := db.store.PinVersion()
	listed, missing := 0, 0
	for l := 0; l < storage.NumLevels; l++ {
		for _, f := range v.Level(l) {
			listed++
			if _, err := os.Stat(storage.TableFileName(cfg.Dir, f.Num)); err != nil {
				missing++
			}
		}
	}
	db.store.ReleaseVersion(v)
	if listed != 3 || missing != 0 {
		t.Fatalf("the current Version lists %d tables, %d of them gone from disk; want 3, none gone", listed, missing)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, cfg)
	for i := uint64(0); i < 3*perRound; i++ {
		if v, ok, err := db.Get(bg, spreadKey(i)); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after reopen: %q %v %v", i, v, ok, err)
		}
	}
}
