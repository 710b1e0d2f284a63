package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// openCloseView opens and closes one view — a Snapshot read once on even
// i, an iterator positioned at its first key on odd i. Either open is a
// view seal (pinView): it swaps in an empty Membuffer and drains the old
// one into the live Memtable while slow-path writers help.
func openCloseView(ctx context.Context, db *DB, i int) error {
	if i%2 == 0 {
		snap, err := db.Snapshot(ctx)
		if err != nil {
			return err
		}
		if _, _, err := snap.Get(ctx, keys.EncodeUint64(uint64(i))); err != nil {
			snap.Close()
			return err
		}
		return snap.Close()
	}
	it, err := db.NewIterator(ctx, nil, nil)
	if err != nil {
		return err
	}
	it.First()
	if err := it.Err(); err != nil {
		it.Close()
		return err
	}
	return it.Close()
}

// TestViewSealsConcurrentOps is the -race workhorse of the view seal:
// writers (Put), batch appliers (Apply) and a scanner run full-tilt while
// another goroutine opens and closes Snapshots and iterators. Every view
// seal drains the Membuffer into the live Memtable with writers paused and
// helping, so an entry lost or reordered across the seal shows up as an
// acknowledged key that no longer reads back.
func TestViewSealsConcurrentOps(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), MemoryBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	const (
		writers  = 3
		perWrite = 400
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var passes [writers]atomic.Uint64
	var seals atomic.Uint64
	errs := make(chan error, writers+2)
	// last[w][i] is the pass whose value writer w last acknowledged for its
	// key i; an older value read back means a seal lost the newer one.
	var last [writers][perWrite]uint64

	// Writers: disjoint key sets spread over every Membuffer partition, the
	// value the pass number, cycling until enough seals have interleaved;
	// writer 2 uses batches so Apply's drainMu path races the seals too.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := uint64(1); !stop.Load(); pass++ {
				v := keys.EncodeUint64(pass)
				for i := 0; i < perWrite; i++ {
					k := spreadKey(uint64(w*perWrite + i))
					if w == 2 {
						b := kv.NewBatch()
						b.Put(k, v)
						if err := db.Apply(ctx, b); err != nil {
							errs <- err
							return
						}
					} else if err := db.Put(ctx, k, v); err != nil {
						errs <- err
						return
					}
					last[w][i] = pass
				}
				passes[w].Add(1)
			}
		}(w)
	}
	// Scanner: full consistent reads, each one a seal of its own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := db.Scan(ctx, nil, nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Sealer: a view every 2 ms. The pause matters on small machines —
	// back-to-back seals keep writers permanently paused (they make
	// progress only by helping drains), which is livelock-adjacent, not a
	// data race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := openCloseView(ctx, db, i); err != nil {
				errs <- err
				return
			}
			seals.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Run until every writer finished a full pass AND several view seals
	// actually interleaved with the traffic.
	deadline := time.After(120 * time.Second)
	for {
		ready := seals.Load() >= 6
		for w := 0; w < writers; w++ {
			ready = ready && passes[w].Load() >= 1
		}
		if ready {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("no interleaving: seals=%d passes=%v %v %v",
				seals.Load(), passes[0].Load(), passes[1].Load(), passes[2].Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	stop.Store(true)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// One more seal moves the last pass through a drain too.
	if err := openCloseView(ctx, db, 1); err != nil {
		t.Fatal(err)
	}

	for w := 0; w < writers; w++ {
		for i := 0; i < perWrite; i++ {
			v, ok, err := db.Get(ctx, spreadKey(uint64(w*perWrite+i)))
			if err != nil || !ok {
				t.Fatalf("writer %d key %d lost (ok=%v err=%v) after %d seals",
					w, i, ok, err, seals.Load())
			}
			if got := keys.DecodeUint64(v); got != last[w][i] {
				t.Fatalf("writer %d key %d reads pass %d, acked pass %d, after %d seals",
					w, i, got, last[w][i], seals.Load())
			}
		}
	}
}

// TestViewSealsRacePersist opens and closes views while the persister
// constantly seals and flushes (a 32 KiB budget), every write logged; the
// store is then closed and reopened. A view seal drains into the live
// Memtable while a persist seal may be retiring it, so an entry stranded
// outside the WAL-truncation invariant shows up as a key missing after
// recovery.
func TestViewSealsRacePersist(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, MemoryBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	var stop atomic.Bool
	var seals atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := openCloseView(ctx, db, i); err != nil {
				t.Error(err)
				return
			}
			seals.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()
	const n = 3000
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := db.Put(ctx, keys.EncodeUint64(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if db.Stats().Flushes == 0 {
		t.Fatal("memory budget too large: persist path never exercised")
	}
	if seals.Load() == 0 {
		t.Fatal("no view seal ever ran")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir, MemoryBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < n; i++ {
		if _, ok, err := re.Get(ctx, keys.EncodeUint64(uint64(i))); err != nil || !ok {
			t.Fatalf("key %d lost across view seals, persists and reopen (ok=%v err=%v)", i, ok, err)
		}
	}
}
