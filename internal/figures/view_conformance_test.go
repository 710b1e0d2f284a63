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
	"strings"
	"sync"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
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

// openSysWAL opens one of the systems with Buffered default durability,
// so every write is logged and checkpoints capture the memory component
// through the WAL tail.
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
			// An iterator opened before Close keeps streaming the
			// snapshot's pairs after it.
			open, err := snap.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer open.Close()
			ok := open.First()
			// Released handles return the typed error.
			snap.Close()
			if _, _, err := snap.Get(bg, keys.EncodeUint64(3)); !errors.Is(err, kv.ErrSnapshotReleased) {
				t.Fatalf("released snapshot Get: %v", err)
			}
			if _, err := snap.Scan(bg, nil, nil); !errors.Is(err, kv.ErrSnapshotReleased) {
				t.Fatalf("released snapshot Scan: %v", err)
			}
			if it, err := snap.NewIterator(bg, nil, nil); !errors.Is(err, kv.ErrSnapshotReleased) {
				if it != nil {
					it.Close()
				}
				t.Fatalf("released snapshot NewIterator: %v", err)
			}
			seen := 0
			for ; ok; ok = open.Next() {
				want := fmt.Sprintf("old-%d", keys.DecodeUint64(open.Key()))
				if string(open.Value()) != want {
					t.Fatalf("iterator after Close: key %d = %q, want %q", keys.DecodeUint64(open.Key()), open.Value(), want)
				}
				seen++
			}
			if err := open.Err(); err != nil || seen != n {
				t.Fatalf("iterator after Close: %d pairs, want %d (err %v)", seen, n, err)
			}
		})
	}
}

// TestAllSystemsSnapshotCloseRacesIterator races a snapshot's Close with
// an iterator opened through it, on a snapshot whose Version compaction
// and flushes have superseded. Whichever wins, the iterator either
// streams the snapshot's pairs or fails with kv.ErrSnapshotReleased, and
// the view's references are dropped exactly once: a late retain on a
// released Version, and the release after it, unlinked tables the
// current Version still listed, which the reopen's reads then miss.
func TestAllSystemsSnapshotCloseRacesIterator(t *testing.T) {
	const (
		nKeys  = 500
		rounds = 60
	)
	key := func(i int) []byte { return keys.EncodeUint64(uint64(i) << 52) }
	val := func(round, i int) string { return fmt.Sprintf("r%d-%d-%0100d", round, i, 0) }
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			s, err := openSystem(sys, dir, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			q, ok := s.(interface{ WaitDiskQuiesce() })
			if !ok {
				t.Fatalf("%T cannot wait for its disk to settle", s)
			}
			write := func(round int) {
				t.Helper()
				for i := 0; i < nKeys; i++ {
					if err := s.Put(bg, key(i), []byte(val(round, i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(0)
			for round := 1; round <= rounds; round++ {
				snap, err := s.Snapshot(bg)
				if err != nil {
					t.Fatal(err)
				}
				write(round) // supersedes the snapshot's Version
				q.WaitDiskQuiesce()
				var (
					wg      sync.WaitGroup
					it      kv.Iterator
					openErr error
				)
				wg.Add(2)
				go func() { defer wg.Done(); snap.Close() }()
				go func() { defer wg.Done(); it, openErr = snap.NewIterator(bg, nil, nil) }()
				wg.Wait()
				if openErr != nil {
					if !errors.Is(openErr, kv.ErrSnapshotReleased) {
						t.Fatalf("round %d: NewIterator racing Close: %v", round, openErr)
					}
					continue
				}
				seen := 0
				for ok := it.First(); ok; ok = it.Next() {
					i := int(keys.DecodeUint64(it.Key()) >> 52)
					if string(it.Value()) != val(round-1, i) {
						t.Fatalf("round %d: key %d = %q, want the snapshot's %q", round, i, it.Value(), val(round-1, i))
					}
					seen++
				}
				if err := errors.Join(it.Err(), it.Close()); err != nil || seen != nKeys {
					t.Fatalf("round %d: iterator read %d of %d pairs: %v", round, seen, nKeys, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = openSystem(sys, dir, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < nKeys; i++ {
				if v, ok, err := s.Get(bg, key(i)); err != nil || !ok || string(v) != val(rounds, i) {
					t.Fatalf("key %d after reopen: %q %v %v", i, v, ok, err)
				}
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
			// With every write logged, the synced tail captures the whole write
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
// server's engine counts it — and every in-process engine timed each
// counted call once into flodb_op_latency_seconds.
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
			got := opCounters(st)
			want := kv.Stats{Puts: 3, Gets: 2, Deletes: 1, Batches: 1, BatchOps: 2,
				Iterators: 1, Snapshots: 1, SyncBarriers: 1}
			if got != want {
				t.Fatalf("op counters\n got %+v\nwant %+v", got, want)
			}
			if sys == SysNet {
				return
			}
			timed := opLatencyCounts(t, s)
			for op, n := range map[string]uint64{"put": st.Puts, "get": st.Gets, "delete": st.Deletes,
				"batch": st.Batches, "snapshot": st.Snapshots} {
				if timed[op] != n {
					t.Errorf("flodb_op_latency_seconds{op=%q} counts %d observations, the op counter %d", op, timed[op], n)
				}
			}
		})
	}
}

// opLatencyCounts returns the number of observations in each op's
// flodb_op_latency_seconds series of an in-process store, by op label.
func opLatencyCounts(t *testing.T, s kv.Store) map[string]uint64 {
	t.Helper()
	tp, ok := s.(interface{ TelemetrySnapshot() obs.Snapshot })
	if !ok {
		t.Fatalf("%T has no telemetry", s)
	}
	counts := map[string]uint64{}
	for _, m := range tp.TelemetrySnapshot().Metrics {
		if obs.Family(m.Name) == "flodb_op_latency_seconds" && m.Hist != nil {
			op := strings.TrimSuffix(strings.TrimPrefix(m.Name, `flodb_op_latency_seconds{op="`), `"}`)
			counts[op] = m.Hist.Count
		}
	}
	return counts
}

// TestAllSystemsClosedStoreRejects holds every system to the closed-store
// half of the kv.Store contract: after Close, every entry point fails with
// an error that is kv.ErrClosed, and a second Close is a no-op. A call
// counts only once it passes the closed check: on the in-process engines,
// whose Stats outlive Close, the rejected calls leave every op counter
// where it was.
func TestAllSystemsClosedStoreRejects(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			dir := t.TempDir()
			s := openSysWAL(t, sys, dir)
			key := keys.EncodeUint64(1)
			if err := s.Put(bg, key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			b := kv.NewBatch()
			b.Put(key, []byte("w"))
			calls := []struct {
				name string
				call func() error
			}{
				{"Get", func() error { _, _, err := s.Get(bg, key); return err }},
				{"Put", func() error { return s.Put(bg, key, []byte("w")) }},
				{"Delete", func() error { return s.Delete(bg, key) }},
				{"Apply", func() error { return s.Apply(bg, b) }},
				{"Scan", func() error { _, err := s.Scan(bg, nil, nil); return err }},
				{"NewIterator", func() error { _, err := s.NewIterator(bg, nil, nil); return err }},
				{"Snapshot", func() error { _, err := s.Snapshot(bg); return err }},
				{"Sync", func() error { return s.Sync(bg) }},
				{"Checkpoint", func() error { return s.Checkpoint(bg, filepath.Join(dir, "ckpt")) }},
			}
			var before kv.Stats
			sp, inProcess := s.(kv.StatsProvider)
			inProcess = inProcess && sys != SysNet
			if inProcess {
				before = sp.Stats()
			}
			for _, c := range calls {
				if err := c.call(); !errors.Is(err, kv.ErrClosed) {
					t.Errorf("%s after Close = %v, want kv.ErrClosed", c.name, err)
				}
			}
			if inProcess {
				if after := sp.Stats(); opCounters(after) != opCounters(before) {
					t.Errorf("rejected calls moved the op counters\n got %+v\nwant %+v", opCounters(after), opCounters(before))
				}
			}
			if err := s.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}
		})
	}
}

// opCounters keeps only the op counters of st.
func opCounters(st kv.Stats) kv.Stats {
	return kv.Stats{Puts: st.Puts, Gets: st.Gets, Deletes: st.Deletes, Scans: st.Scans,
		Batches: st.Batches, BatchOps: st.BatchOps, Iterators: st.Iterators,
		Snapshots: st.Snapshots, Checkpoints: st.Checkpoints, SyncBarriers: st.SyncBarriers}
}
