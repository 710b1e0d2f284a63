package figures

// Conformance of the read-view surface across the paper's five systems:
// every kv.Store the harness drives must provide repeatable-read
// snapshots, honor context cancellation mid-scan, and produce openable
// checkpoints. This is the contract the apibench figure (and the next
// PRs' server layer) relies on.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

var bg = context.Background()

func openSys(t *testing.T, sys System, dir string) kv.Store {
	t.Helper()
	s, err := openSystem(sys, dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openSysWAL opens one of the systems with the commit log ON, so
// checkpoints capture the memory component through the WAL tail.
func openSysWAL(t *testing.T, sys System, dir string) kv.Store {
	t.Helper()
	s, err := openSystemDurable(sys, dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllSystemsSnapshotIsolation(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			s := openSys(t, sys, t.TempDir())
			defer s.Close()
			const n = 200
			for i := 0; i < n; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), []byte(fmt.Sprintf("old-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := s.Snapshot(bg)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			for i := 0; i < n; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), []byte("new")); err != nil {
					t.Fatal(err)
				}
			}
			// Repeatable read of the pre-snapshot state, twice.
			for pass := 0; pass < 2; pass++ {
				pairs, err := snap.Scan(bg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(pairs) != n {
					t.Fatalf("pass %d: snapshot scan %d pairs, want %d", pass, len(pairs), n)
				}
				for _, p := range pairs {
					want := fmt.Sprintf("old-%d", keys.DecodeUint64(p.Key))
					if string(p.Value) != want {
						t.Fatalf("pass %d: snapshot leaked %q for key %d", pass, p.Value, keys.DecodeUint64(p.Key))
					}
				}
			}
			if v, ok, err := snap.Get(bg, keys.EncodeUint64(3)); err != nil || !ok || string(v) != "old-3" {
				t.Fatalf("snapshot Get = %q %v %v", v, ok, err)
			}
			if v, ok, err := s.Get(bg, keys.EncodeUint64(3)); err != nil || !ok || string(v) != "new" {
				t.Fatalf("live Get = %q %v %v", v, ok, err)
			}
			// Released handles return the typed error.
			snap.Close()
			if _, _, err := snap.Get(bg, keys.EncodeUint64(3)); !errors.Is(err, kv.ErrSnapshotReleased) {
				t.Fatalf("released snapshot Get: %v", err)
			}
		})
	}
}

func TestAllSystemsContextCanceledScan(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			s := openSys(t, sys, t.TempDir())
			defer s.Close()
			for i := 0; i < 3000; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			it, err := s.NewIterator(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			n := 0
			for ok := it.First(); ok; ok = it.Next() {
				if n++; n == 100 {
					cancel()
				}
			}
			if err := it.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("iterator err after mid-scan cancel: %v (saw %d pairs)", err, n)
			}
			if n >= 3000 {
				t.Fatal("iteration ran to completion despite cancellation")
			}
			if _, err := s.Scan(ctx, nil, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("Scan with canceled ctx: %v", err)
			}
			if err := s.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, context.Canceled) {
				t.Fatalf("Put with canceled ctx: %v", err)
			}
		})
	}
}

// TestAllSystemsIteratorPointInTime: an iterator is one point-in-time view
// for its whole lifetime on every system — the baselines because they are
// multi-versioned, FloDB because an open iterator's sequence bound keeps
// the versions it needs chained in the skiplist. A cursor is stopped
// mid-range, keys behind, under and ahead of it are overwritten, deleted
// and inserted, and the cursor must finish — and replay from the start —
// on exactly the state it was opened over, while an iterator opened
// afterwards sees the new state.
func TestAllSystemsIteratorPointInTime(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			s := openSys(t, sys, t.TempDir())
			defer s.Close()
			const n = 1200
			key := func(i int) []byte { return keys.EncodeUint64(uint64(i) << 52) }
			model := map[uint64]string{}
			put := func(i int, v string) {
				t.Helper()
				if err := s.Put(bg, key(i), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[uint64(i)] = v
			}
			del := func(i int) {
				t.Helper()
				if err := s.Delete(bg, key(i)); err != nil {
					t.Fatal(err)
				}
				delete(model, uint64(i))
			}
			// requireModel drives it from the start and compares every
			// pair with want.
			requireModel := func(what string, it kv.Iterator, want map[uint64]string) {
				t.Helper()
				seen := 0
				prev := -1
				for ok := it.First(); ok; ok = it.Next() {
					i := int(keys.DecodeUint64(it.Key()) >> 52)
					if i <= prev {
						t.Fatalf("%s: key %d after %d", what, i, prev)
					}
					prev = i
					if v, ok := want[uint64(i)]; !ok || v != string(it.Value()) {
						t.Fatalf("%s: key %d = %q, want %q (present %v)", what, i, it.Value(), v, ok)
					}
					seen++
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				if seen != len(want) {
					t.Fatalf("%s: %d pairs, want %d", what, seen, len(want))
				}
			}

			for i := 0; i < n; i += 2 {
				put(i, fmt.Sprintf("old-%d", i))
			}
			del(40)
			atOpen := map[uint64]string{}
			for k, v := range model {
				atOpen[k] = v
			}
			first, err := s.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer first.Close()
			ok := first.First()
			for i := 0; ok && i < len(atOpen)/2; i++ {
				ok = first.Next()
			}
			if !ok {
				t.Fatal("iterator ended before the midpoint")
			}
			cursor := int(keys.DecodeUint64(first.Key()) >> 52)
			for _, at := range []int{cursor - 30, cursor - 2, cursor, cursor + 2, cursor + 30} {
				put(at, "new-1")
				put(at, "new-2")
				del(at + 4)
				put(at+1, "inserted")
			}
			put(40, "resurrected")

			second, err := s.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			requireModel("iterator opened after the writes", second, model)

			// The first cursor carries on where it stopped, on the old state...
			for ; ok; ok = first.Next() {
				i := keys.DecodeUint64(first.Key()) >> 52
				if v, present := atOpen[i]; !present || v != string(first.Value()) {
					t.Fatalf("resumed cursor: key %d = %q, want %q (present %v)", i, first.Value(), v, present)
				}
			}
			if err := first.Err(); err != nil {
				t.Fatal(err)
			}
			// ...and replays it in full.
			requireModel("iterator opened before the writes", first, atOpen)
		})
	}
}

func TestAllSystemsCheckpointReopens(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			base := t.TempDir()
			s := openSysWAL(t, sys, filepath.Join(base, "src"))
			defer s.Close()
			const n = 500
			for i := 0; i < n; i++ {
				if err := s.Put(bg, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			ck := filepath.Join(base, "ck")
			if err := s.Checkpoint(bg, ck); err != nil {
				t.Fatal(err)
			}
			// With the WAL on, the synced tail captures the whole write
			// history: the checkpoint must reopen (as the same system)
			// holding every pair, each intact.
			r := openSysWAL(t, sys, ck)
			pairs, err := r.Scan(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if len(pairs) != n {
				t.Fatalf("checkpoint reopened with %d pairs, want %d", len(pairs), n)
			}
			for _, p := range pairs {
				if keys.DecodeUint64(p.Key) != keys.DecodeUint64(p.Value) {
					t.Fatalf("corrupt pair in checkpoint: %x=%x", p.Key, p.Value)
				}
			}
		})
	}
}

// TestAllSystemsStatsCountOps: after one scripted sequence of store calls,
// every system's Stats reports each call once — through the wire the
// server's engine counts it.
func TestAllSystemsStatsCountOps(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			s := openSys(t, sys, t.TempDir())
			defer s.Close()
			key := func(i int) []byte { return keys.EncodeUint64(uint64(i) << 52) }
			for i := 0; i < 3; i++ {
				if err := s.Put(bg, key(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if _, _, err := s.Get(bg, key(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Delete(bg, key(0)); err != nil {
				t.Fatal(err)
			}
			b := kv.NewBatch()
			b.Put(key(3), []byte("v"))
			b.Delete(key(1))
			if err := s.Apply(bg, b); err != nil {
				t.Fatal(err)
			}
			it, err := s.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for ok := it.First(); ok; ok = it.Next() {
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot(bg)
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}

			sp, ok := s.(kv.StatsProvider)
			if !ok {
				t.Fatalf("%s reports no Stats", sys)
			}
			st := sp.Stats()
			got := kv.Stats{Puts: st.Puts, Gets: st.Gets, Deletes: st.Deletes, Scans: st.Scans,
				Batches: st.Batches, BatchOps: st.BatchOps, Iterators: st.Iterators,
				Snapshots: st.Snapshots, Checkpoints: st.Checkpoints, SyncBarriers: st.SyncBarriers}
			want := kv.Stats{Puts: 3, Gets: 2, Deletes: 1, Batches: 1, BatchOps: 2,
				Iterators: 1, Snapshots: 1, SyncBarriers: 1}
			if got != want {
				t.Fatalf("op counters\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
