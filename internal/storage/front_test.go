package storage

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wal"
)

// fakeEngine is the least an engine can plug into a Front: a map for a
// memory component, no log, and a disk component with nothing in it.
type fakeEngine struct {
	mu    sync.Mutex
	data  map[string][]byte
	stops int
}

func (e *fakeEngine) write(_ context.Context, kind keys.Kind, key, value []byte, _ kv.Durability) (*wal.Writer, int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if kind == keys.KindDelete {
		delete(e.data, string(key))
	} else {
		e.data[string(key)] = append([]byte(nil), value...)
	}
	return nil, 0, nil
}

func (e *fakeEngine) apply(ctx context.Context, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	for _, op := range b.Ops() {
		e.write(ctx, op.Kind, op.Key, op.Value, d)
	}
	return nil, 0, nil
}

func (e *fakeEngine) get(key []byte) ([]byte, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.data[string(key)]
	return v, ok, nil
}

// openFront opens a Front over a fakeEngine and an empty disk component.
func openFront(t *testing.T) (*Front, *fakeEngine) {
	t.Helper()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f, e := new(Front), &fakeEngine{data: map[string][]byte{}}
	if err := f.Init(kv.DurabilityDefault, false); err != nil {
		t.Fatal(err)
	}
	f.Open(s, new(wal.Metrics), Engine{
		Write:      e.write,
		Apply:      e.apply,
		Get:        e.get,
		View:       func() ReadView { return ReadView{Seq: s.LastSeq(), Ver: s.PinVersion()} },
		Logs:       func() (sealed, active *wal.Writer) { return nil, nil },
		Checkpoint: s.Checkpoint,
		Stop:       func() { e.stops++ },
	})
	return f, e
}

// frontCalls are one call of each kind a Front serves.
func frontCalls(f *Front, dir string) []struct {
	name string
	call func() error
} {
	ctx := context.Background()
	b := kv.NewBatch()
	b.Put([]byte("b"), []byte("1"))
	return []struct {
		name string
		call func() error
	}{
		{"Put", func() error { return f.Put(ctx, []byte("k"), []byte("v")) }},
		{"Delete", func() error { return f.Delete(ctx, []byte("k")) }},
		{"Apply", func() error { return f.Apply(ctx, b) }},
		{"Get", func() error { _, _, err := f.Get(ctx, []byte("k")); return err }},
		{"Scan", func() error { _, err := f.Scan(ctx, nil, nil); return err }},
		{"NewIterator", func() error {
			it, err := f.NewIterator(ctx, nil, nil)
			if err == nil {
				it.Close()
			}
			return err
		}},
		{"Snapshot", func() error {
			v, err := f.Snapshot(ctx)
			if err == nil {
				v.Close()
			}
			return err
		}},
		{"Sync", func() error { return f.Sync(ctx) }},
		{"Checkpoint", func() error { return f.Checkpoint(ctx, dir) }},
	}
}

// TestFrontCountsAndTimesEachCallOnce: every call is counted once, and
// every counted Put, Delete, Get, Apply, Scan and Snapshot is timed once
// into flodb_op_latency_seconds.
func TestFrontCountsAndTimesEachCallOnce(t *testing.T) {
	f, _ := openFront(t)
	for _, c := range frontCalls(f, filepath.Join(t.TempDir(), "ckpt")) {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	st := f.Stats()
	got := [...]uint64{st.Puts, st.Deletes, st.Batches, st.BatchOps, st.Gets, st.Scans, st.Iterators,
		st.Snapshots, st.SyncBarriers, st.Checkpoints}
	if got != [...]uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1} {
		t.Fatalf("op counters %+v, want one of each", st)
	}
	timed := map[string]uint64{}
	for _, m := range f.TelemetrySnapshot().Metrics {
		if obs.Family(m.Name) == "flodb_op_latency_seconds" {
			timed[m.Name] = m.Hist.Count
		}
	}
	for _, op := range opNames {
		if n := timed[`flodb_op_latency_seconds{op="`+op+`"}`]; n != 1 {
			t.Errorf("op %s timed %d times, want 1", op, n)
		}
	}
}

// TestFrontClosedRejectsUncounted: after Shut, every call fails with an
// error that is kv.ErrClosed and counts nothing, and the engine's
// background work is stopped exactly once, however often the store is
// shut or crashed.
func TestFrontClosedRejectsUncounted(t *testing.T) {
	f, e := openFront(t)
	if !f.Shut() {
		t.Fatal("the first Shut did not close the store")
	}
	if f.Shut() {
		t.Fatal("a second Shut closed the store again")
	}
	f.CrashForTesting()
	if e.stops != 1 {
		t.Fatalf("the engine was stopped %d times, want 1", e.stops)
	}
	for _, c := range frontCalls(f, filepath.Join(t.TempDir(), "ckpt")) {
		if err := c.call(); !errors.Is(err, kv.ErrClosed) {
			t.Errorf("%s after Shut = %v, want kv.ErrClosed", c.name, err)
		}
	}
	if st := f.Stats(); st.Puts+st.Deletes+st.Batches+st.Gets+st.Scans+st.Iterators+st.Snapshots+
		st.SyncBarriers+st.Checkpoints != 0 {
		t.Fatalf("rejected calls were counted: %+v", st)
	}
}

// TestFrontBackgroundErrorIsSticky: once the engine records a background
// failure, every write, Snapshot and Checkpoint returns the first one,
// while reads go on.
func TestFrontBackgroundErrorIsSticky(t *testing.T) {
	f, _ := openFront(t)
	first, second := errors.New("flush failed"), errors.New("a later failure")
	f.SetBackgroundErr(nil)
	if err := f.BackgroundErr(); err != nil {
		t.Fatalf("a nil error was recorded: %v", err)
	}
	f.SetBackgroundErr(first)
	f.SetBackgroundErr(second)
	for _, c := range frontCalls(f, filepath.Join(t.TempDir(), "ckpt")) {
		err := c.call()
		switch c.name {
		case "Get", "Scan", "NewIterator", "Sync": // Sync: this store has no log
			if err != nil {
				t.Errorf("%s after a background failure = %v, want nil", c.name, err)
			}
		default:
			if err != first {
				t.Errorf("%s after a background failure = %v, want the first failure", c.name, err)
			}
		}
	}
}

// TestFrontNoteStall: a writer's waits are recorded once, by cause, and
// the by-cause series sum to the total.
func TestFrontNoteStall(t *testing.T) {
	f, _ := openFront(t)
	var none Stall
	f.NoteStall(&none)
	var st Stall
	st.Wait(StallSeal)
	time.Sleep(time.Millisecond)
	st.Wait(StallMemtable)
	st.Wait(StallMemtable)
	time.Sleep(time.Millisecond)
	f.NoteStall(&st)
	var total, sum int64
	var count uint64
	for _, m := range f.TelemetrySnapshot().Metrics {
		switch obs.Family(m.Name) {
		case "flodb_write_stall_nanoseconds_total":
			total = m.Value
		case "flodb_write_stall_by_cause_nanoseconds_total":
			if m.Value > 0 && m.Name == `flodb_write_stall_by_cause_nanoseconds_total{cause="l0"}` {
				t.Errorf("a wait was recorded under l0")
			}
			sum += m.Value
		case "flodb_write_stall_seconds":
			count = m.Hist.Count
		}
	}
	if total < int64(2*time.Millisecond) || sum != total {
		t.Fatalf("stall total %v, by cause %v: want >= 2ms and equal", time.Duration(total), time.Duration(sum))
	}
	if count != 1 {
		t.Fatalf("%d observations in flodb_write_stall_seconds, want 1", count)
	}
}
