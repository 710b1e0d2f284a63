package figures

// Conformance of the durability surface across the paper's five systems:
// every kv.Store the harness drives must honor per-operation durability
// classes, promote the acked-but-buffered window on Sync, coalesce
// concurrent committers in the group-commit queue, and recover a
// prefix-consistent state (no holes in commit order) after a crash that
// loses buffered writes. This is the contract the durable-write apibench
// column measures.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// crasher is implemented (for tests only) by all five systems: it
// abandons the store without the close-time flush, losing every WAL
// record past the last fsync/OS-flush — the acked-but-lost window.
type crasher interface{ CrashForTesting() }

func crashStore(t *testing.T, s kv.Store) {
	t.Helper()
	c, ok := s.(crasher)
	if !ok {
		t.Fatalf("%T does not support crash simulation", s)
	}
	c.CrashForTesting()
}

func openDurable(t *testing.T, sys System, dir string, memBytes int64) kv.Store {
	t.Helper()
	s, err := openSystemDurable(sys, dir, memBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stats(t *testing.T, s kv.Store) kv.Stats {
	t.Helper()
	sp, ok := s.(kv.StatsProvider)
	if !ok {
		t.Fatalf("%T does not report stats", s)
	}
	return sp.Stats()
}

// TestAllSystemsPerOpDurabilityClasses writes one key under each class,
// crashes, and checks each class's contract: Sync survives, None is gone,
// and the boundary counters are coherent.
func TestAllSystemsPerOpDurabilityClasses(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			s := openDurable(t, sys, dir, 1<<20)

			// Sync first, buffered and none after: the later records sit
			// past the barrier, in the staging buffer the crash loses.
			if err := s.Put(bg, []byte("k-sync"), []byte("v-sync"), kv.WithSync()); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(bg, []byte("k-buf"), []byte("v-buf")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(bg, []byte("k-none"), []byte("v-none"), kv.WithDurability(kv.DurabilityNone)); err != nil {
				t.Fatal(err)
			}

			st := stats(t, s)
			if st.AckedSeq < 2 {
				t.Fatalf("AckedSeq = %d, want >= 2 (sync + buffered logged; none not)", st.AckedSeq)
			}
			if st.DurableSeq < 1 || st.DurableSeq > st.AckedSeq {
				t.Fatalf("DurableSeq = %d outside [1, AckedSeq=%d]", st.DurableSeq, st.AckedSeq)
			}
			if st.WALSyncs < 1 || st.WALSyncRequests < 1 {
				t.Fatalf("sync write issued no barrier: %+v", st)
			}

			crashStore(t, s)
			r := openDurable(t, sys, dir, 1<<20)
			defer r.Close()
			if v, ok, err := r.Get(bg, []byte("k-sync")); err != nil || !ok || string(v) != "v-sync" {
				t.Fatalf("Sync-class write lost in crash: %q %v %v", v, ok, err)
			}
			if _, ok, _ := r.Get(bg, []byte("k-none")); ok {
				t.Fatal("None-class write survived a crash it was promised not to")
			}
			// k-buf is inside the documented acked-but-lost window: either
			// outcome is legal, but a recovered value must be intact.
			if v, ok, _ := r.Get(bg, []byte("k-buf")); ok && string(v) != "v-buf" {
				t.Fatalf("buffered write recovered corrupt: %q", v)
			}
		})
	}
}

// TestAllSystemsUnloggedDefaultTakesLoggedClasses: a store whose default
// durability is None still has its log, so a write that names a logged
// class is logged and honored, and the barrier works.
func TestAllSystemsUnloggedDefaultTakesLoggedClasses(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			s := openSys(t, sys, t.TempDir()) // default durability None
			defer s.Close()
			if err := s.Put(bg, []byte("k"), []byte("v")); err != nil {
				t.Fatalf("default put: %v", err)
			}
			if err := s.Put(bg, []byte("k"), []byte("v"), kv.WithSync()); err != nil {
				t.Fatalf("Sync put: %v", err)
			}
			if err := s.Put(bg, []byte("k"), []byte("v"), kv.WithDurability(kv.DurabilityBuffered)); err != nil {
				t.Fatalf("Buffered put: %v", err)
			}
			b := kv.NewBatch()
			b.Put([]byte("k"), []byte("v"))
			if err := s.Apply(bg, b, kv.WithSync()); err != nil {
				t.Fatalf("Sync batch: %v", err)
			}
			if err := s.Sync(bg); err != nil {
				t.Fatalf("Sync barrier: %v", err)
			}
			if st := stats(t, s); st.AckedSeq < 3 || st.DurableSeq != st.AckedSeq {
				t.Fatalf("acked %d, durable %d log records; want the 3 logged writes, all durable", st.AckedSeq, st.DurableSeq)
			}
		})
	}
}

// TestAllSystemsUnloggedDefaultReopenKeepsSynced: a directory a crash
// left with Sync-acked records keeps them when it is reopened with
// default durability None — that open replays the log like any other —
// and still holds them at the logged open after it.
func TestAllSystemsUnloggedDefaultReopenKeepsSynced(t *testing.T) {
	const n = 20
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			s := openDurable(t, sys, dir, 1<<20)
			for i := 0; i < n; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i)), kv.WithSync()); err != nil {
					t.Fatal(err)
				}
			}
			crashStore(t, s)

			check := func(s kv.Store, open string) {
				t.Helper()
				for i := 0; i < n; i++ {
					v, ok, err := s.Get(bg, keys.EncodeUint64(uint64(i)))
					if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
						t.Fatalf("%s open: Sync-acked key %d = %x %v %v", open, i, v, ok, err)
					}
				}
			}
			r := openSys(t, sys, dir)
			check(r, "unlogged-default")
			// Its Close flushes, moving the manifest's log number on.
			if err := r.Put(bg, []byte("after"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r = openDurable(t, sys, dir, 1<<20)
			defer r.Close()
			check(r, "logged")
		})
	}
}

// TestAllSystemsSyncBarrierPromotesAcked writes a buffered prefix,
// raises the barrier, writes a buffered suffix, crashes — everything
// before the barrier must survive, and what survives overall must be a
// hole-free prefix of commit order.
func TestAllSystemsSyncBarrierPromotesAcked(t *testing.T) {
	const durable, extra = 100, 50
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			s := openDurable(t, sys, dir, 1<<20)
			for i := 0; i < durable; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}
			st := stats(t, s)
			if st.DurableSeq != st.AckedSeq {
				t.Fatalf("barrier left a gap: durable %d < acked %d", st.DurableSeq, st.AckedSeq)
			}
			if st.SyncBarriers != 1 {
				t.Fatalf("SyncBarriers = %d, want 1", st.SyncBarriers)
			}
			for i := durable; i < durable+extra; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			crashStore(t, s)

			r := openDurable(t, sys, dir, 1<<20)
			defer r.Close()
			missingFrom := -1
			for i := 0; i < durable+extra; i++ {
				v, ok, err := r.Get(bg, keys.EncodeUint64(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case !ok && i < durable:
					t.Fatalf("pre-barrier write %d lost across crash", i)
				case !ok && missingFrom < 0:
					missingFrom = i
				case ok && missingFrom >= 0:
					t.Fatalf("hole in commit order: key %d recovered but key %d was not", i, missingFrom)
				case ok && keys.DecodeUint64(v) != uint64(i):
					t.Fatalf("key %d recovered corrupt: %x", i, v)
				}
			}
		})
	}
}

// TestAllSystemsGroupCommitCoalesces proves fsync coalescing at the store
// level: N concurrent committers drive the commit queue and must trigger
// strictly fewer fsyncs than requests (counted via the WAL stats hook),
// while every one of their writes is durable across a crash.
func TestAllSystemsGroupCommitCoalesces(t *testing.T) {
	const (
		writers       = 8
		barriers      = 8 // concurrent Sync(ctx) calls after a buffered load
		syncPerWriter = 8 // concurrent Sync-class puts per writer
	)
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			s := openDurable(t, sys, dir, 1<<20)

			// Phase 1 — buffered load from all writers, no barriers.
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						k := []byte(fmt.Sprintf("buf-%d-%d", w, i))
						if err := s.Put(bg, k, k); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			// Phase 2 — every append already staged, so the FIRST barrier
			// leader covers them all: concurrent barriers must coalesce to
			// strictly fewer fsyncs than requests, deterministically.
			before := stats(t, s)
			for i := 0; i < barriers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := s.Sync(bg); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			mid := stats(t, s)
			barrierSyncs := mid.WALSyncs - before.WALSyncs
			if barrierSyncs >= barriers {
				t.Fatalf("concurrent barriers did not coalesce: %d fsyncs for %d barriers", barrierSyncs, barriers)
			}
			if mid.DurableSeq != mid.AckedSeq {
				t.Fatalf("barriers left a gap: durable %d < acked %d", mid.DurableSeq, mid.AckedSeq)
			}

			// Phase 3 — concurrent Sync-class writers hammer the queue.
			// Coalescing here depends on real overlap, which the scheduler
			// (especially under -race) may deny, so the strict fewer-
			// fsyncs-than-committers assertion lives in phase 2 and in the
			// wal package's deterministic leader/follower tests; this
			// phase checks accounting sanity and (below) that every
			// sync-acked write is actually durable.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < syncPerWriter; i++ {
						k := []byte(fmt.Sprintf("sync-%d-%d", w, i))
						if err := s.Put(bg, k, k, kv.WithSync()); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			after := stats(t, s)
			reqs := after.WALSyncRequests - mid.WALSyncRequests
			syncs := after.WALSyncs - mid.WALSyncs
			if reqs < writers*syncPerWriter {
				t.Fatalf("sync requests = %d, want >= %d", reqs, writers*syncPerWriter)
			}
			if syncs > reqs {
				t.Fatalf("more fsyncs than durability requests: %d > %d", syncs, reqs)
			}
			t.Logf("%s: %d sync requests served by %d fsyncs (%.1fx coalescing)",
				sys, reqs, syncs, float64(reqs)/float64(max64(syncs, 1)))

			// Every sync-acked write survives the crash.
			crashStore(t, s)
			r := openDurable(t, sys, dir, 1<<20)
			defer r.Close()
			for w := 0; w < writers; w++ {
				for i := 0; i < syncPerWriter; i++ {
					k := []byte(fmt.Sprintf("sync-%d-%d", w, i))
					if _, ok, err := r.Get(bg, k); err != nil || !ok {
						t.Fatalf("sync-acked write %s lost: ok=%v err=%v", k, ok, err)
					}
				}
			}
		})
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestAllSystemsCrashMidStreamPrefix opens the acked-but-lost window for
// real: a writer streams buffered writes while the store crashes under
// it. Whatever recovers must be a contiguous prefix of the issue order —
// a lost suffix is the documented Buffered contract, a hole is a bug.
func TestAllSystemsCrashMidStreamPrefix(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			// Small memory component: the stream forces memtable switches,
			// exercising the cross-segment prefix (seal-time flush).
			s := openDurable(t, sys, dir, 128<<10)

			ctx, cancel := context.WithTimeout(bg, 30*time.Second)
			defer cancel()
			var issuedN atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					issuedN.Store(int64(i + 1))
					if err := s.Put(ctx, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
						issuedN.Store(int64(i)) // the failed write may or may not have landed; exclude it
						return
					}
				}
			}()
			// Let the stream run, then make sure enough writes are actually
			// in before pulling the plug: under -race the networked system
			// can take tens of milliseconds per round trip, so a
			// fixed sleep alone crashes an empty store on slow machines.
			time.Sleep(30 * time.Millisecond)
			// >= 11, not 10: the counter is stored optimistically before
			// each Put, and the crash fails the in-flight write, rolling
			// the count back by one.
			for limit := time.Now().Add(20 * time.Second); issuedN.Load() < 11 && time.Now().Before(limit); {
				time.Sleep(5 * time.Millisecond)
			}
			crashStore(t, s)
			<-done
			issued := int(issuedN.Load())
			if issued < 10 {
				t.Fatalf("writer only issued %d writes before the crash", issued)
			}

			r := openDurable(t, sys, dir, 128<<10)
			defer r.Close()
			recovered, missingFrom := 0, -1
			// Scan one past the issued horizon: the in-flight write may
			// have landed, anything beyond it must not exist.
			for i := 0; i <= issued; i++ {
				v, ok, err := r.Get(bg, keys.EncodeUint64(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case ok && missingFrom >= 0:
					t.Fatalf("hole in commit order: key %d recovered but key %d was not (issued %d)", i, missingFrom, issued)
				case ok && keys.DecodeUint64(v) != uint64(i):
					t.Fatalf("key %d recovered corrupt: %x", i, v)
				case ok:
					recovered++
				case missingFrom < 0:
					missingFrom = i
				}
			}
			t.Logf("%s: issued ~%d, recovered prefix of %d", sys, issued, recovered)
		})
	}
}
