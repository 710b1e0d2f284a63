package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
)

// within polls cond for up to d and reports whether it came true.
func within(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			return cond()
		}
	}
	return true
}

// TestDrainOwnershipKeepsNewestVersion checks the drain's invariant — at
// most one unreleased claim per key — with 2 to 4 background drainers, one
// writer per key and versions that only grow.
//
// Phase 1 plays the losing interleaving move by move. A drainer claims
// version n of a key and is parked between claim and insert. The writer
// overwrites the slot in place with n+1. Without partition ownership a
// second drainer now claims n+1, inserts it and clears the slot; the parked
// drainer wakes, draws a LATER sequence number for its older copy and
// replaces n+1 with n in the Memtable: an acknowledged write is gone. With
// ownership nobody can claim n+1 until the parked batch is released.
//
// Phase 2 is the model run: every key has one writer, drainers are slowed
// at random between claim and insert, a reader must never see a version
// older than one acknowledged before its Get began, and in the end both
// the layered read path and a sealed view must hold every key's last
// version.
func TestDrainOwnershipKeepsNewestVersion(t *testing.T) {
	for _, drainers := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("%d-drainers", drainers), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.DrainThreads = drainers
			cfg.PartitionBits = 1 // a drainer comes back to a partition every other visit
			db := openTestDB(t, cfg)
			resident := func() int { return db.gen.Load().mbf.Len() }
			version := func(key []byte) uint64 {
				t.Helper()
				v, ok, err := db.Get(bg, key)
				if err != nil || !ok {
					t.Fatalf("Get(%x): ok=%v err=%v", key, ok, err)
				}
				return keys.DecodeUint64(v)
			}

			key, ver := spreadKey(7), uint64(0)
			put := func() {
				t.Helper()
				ver++
				if err := db.Put(bg, key, keys.EncodeUint64(ver)); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 6; round++ {
				waitFor(t, "an empty Membuffer", func() bool { return resident() == 0 })
				claimed, release := make(chan struct{}), make(chan struct{})
				hook := parkOnce(hookDrainerClaimed, claimed, release)
				db.testHook.Store(&hook)
				put() // the only resident entry: whoever claims, claims this
				select {
				case <-claimed:
				case <-time.After(10 * time.Second):
					t.Fatal("no drainer claimed the entry")
				}
				put() // in place, over the claimed pair
				stolen := within(40*time.Millisecond, func() bool { return resident() == 0 })
				close(release)
				if got := version(key); got != ver {
					t.Fatalf("round %d (second claim while the first was unreleased: %v): key reads version %d, %d was acknowledged", round, stolen, got, ver)
				}
				waitFor(t, "the overwritten entry to drain", func() bool { return resident() == 0 })
				if got := version(key); got != ver {
					t.Fatalf("round %d, after the drain: key reads version %d, %d was acknowledged", round, got, ver)
				}
			}

			var slow atomic.Uint64
			jitter := func(p hookPoint) {
				if p != hookDrainerClaimed {
					return
				}
				if slow.Add(1)%3 == 0 {
					time.Sleep(100 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
			db.testHook.Store(&jitter)
			const modelKeys = 8
			var (
				acked [modelKeys]atomic.Uint64
				wg    sync.WaitGroup
				stop  = make(chan struct{})
			)
			for k := 0; k < modelKeys; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := uint64(1); ; v++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := db.Put(bg, spreadKey(uint64(100+k)), keys.EncodeUint64(v)); err != nil {
							t.Error(err)
							return
						}
						acked[k].Store(v)
						if v%32 == 0 {
							time.Sleep(50 * time.Microsecond) // let entries sit long enough to be claimed
						}
					}
				}()
			}
			for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
				for k := 0; k < modelKeys; k++ {
					if floor := acked[k].Load(); floor > 0 {
						if got := version(spreadKey(uint64(100 + k))); got < floor {
							t.Fatalf("key %d reads version %d after %d was acknowledged", k, got, floor)
						}
					}
				}
			}
			close(stop)
			wg.Wait()
			db.testHook.Store(nil)
			for k := 0; k < modelKeys; k++ {
				if got, want := version(spreadKey(uint64(100+k))), acked[k].Load(); got != want {
					t.Fatalf("key %d reads version %d at rest, %d was acknowledged", k, got, want)
				}
			}
			// A scan seals and drains the Membuffer: what the Memtable ends
			// up holding must be the newest versions too.
			pairs, err := db.Scan(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for _, p := range pairs {
				for k := 0; k < modelKeys; k++ {
					if string(p.Key) == string(spreadKey(uint64(100+k))) {
						seen++
						if got, want := keys.DecodeUint64(p.Value), acked[k].Load(); got != want {
							t.Fatalf("key %d scans as version %d, %d was acknowledged", k, got, want)
						}
					}
				}
			}
			if seen != modelKeys {
				t.Fatalf("the scan returned %d of the %d model keys", seen, modelKeys)
			}
		})
	}
}

// TestBackgroundDrainClaimsWholePartition: a background drainer's visit to
// a partition that is at least drainLowWater full claims every resident
// entry of it, not a fixed-size slice. The drainer is parked on each
// claim: the first holds a lone entry of partition 1 while the test fills
// partition 0 past the mark, the next, on partition 0, must hold all of
// it, and a third, of a second lone entry, marks the end of the second's
// move.
func TestBackgroundDrainClaimsWholePartition(t *testing.T) {
	cfg := testConfig(t)
	cfg.DrainThreads = 1
	cfg.PartitionBits = 1
	db := openTestDB(t, cfg)

	claims, resume, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	hook := func(p hookPoint) {
		if p != hookDrainerClaimed {
			return
		}
		select {
		case claims <- struct{}{}:
		case <-stop:
			return
		}
		select {
		case <-resume:
		case <-stop:
		}
	}
	db.testHook.Store(&hook)
	t.Cleanup(func() { close(stop) }) // before the Close openTestDB registered
	claim := func(what string) {
		t.Helper()
		select {
		case <-claims:
		case <-time.After(10 * time.Second):
			t.Fatalf("the background drainer never claimed %s", what)
		}
	}
	val := []byte("v") // small values: the slow-path writes stay far below a persist
	i := uint64(0)
	put := func(part uint32) {
		t.Helper()
		for ; keys.PartitionOf(spreadKey(i), cfg.PartitionBits) != part; i++ {
		}
		if err := db.Put(bg, spreadKey(i), val); err != nil {
			t.Fatal(err)
		}
		i++
	}

	put(1)
	claim("the lone entry of partition 1")
	mbf := db.gen.Load().mbf
	slots := mbf.Capacity() / mbf.Partitions()
	for float64(mbf.PartitionLen(0)) < (drainLowWater+0.1)*float64(slots) {
		if i > 1<<16 {
			t.Fatalf("partition 0 filled only to %d of %d slots", mbf.PartitionLen(0), slots)
		}
		put(0)
	}
	want := mbf.PartitionLen(0)
	if want <= trickleBatch {
		t.Fatalf("partition 0 holds %d entries, want more than %d", want, trickleBatch)
	}
	resume <- struct{}{}
	claim("partition 0")
	before := db.stats.drainedEntries.Load()
	put(1)
	resume <- struct{}{}
	// The next claim starts after the whole of the previous batch is in
	// the Memtable and counted.
	claim("the second lone entry")
	if got := db.stats.drainedEntries.Load() - before; got != uint64(want) {
		t.Fatalf("the drainer's batch from partition 0 held %d entries; %d were resident", got, want)
	}
}
