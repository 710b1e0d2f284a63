package wal

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "000001.wal")
}

func TestRoundTrip(t *testing.T) {
	path := tempLog(t)
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	records := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte("x"), 100_000),
		[]byte("last"),
	}
	for _, rec := range records {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReplayAll(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	for i := 0; i < 10; i++ {
		w.Append([]byte{byte(i)})
	}
	w.Close()
	var got []byte
	err := ReplayAll(path, func(rec []byte) error {
		got = append(got, rec[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d records", len(got))
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("record %d = %d", i, b)
		}
	}
}

func TestReplayAllPropagatesFnError(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	w.Append([]byte("x"))
	w.Close()
	sentinel := errors.New("boom")
	if err := ReplayAll(path, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestTruncatedTailIsCleanEnd(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	w.Append([]byte("complete-record"))
	w.Append([]byte("this-one-gets-torn"))
	w.Close()

	// Tear the last record: chop a few bytes off the file.
	fi, _ := os.Stat(path)
	for _, cut := range []int64{1, 5, 10} {
		if err := os.Truncate(path, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		var n int
		err := ReplayAll(path, func(rec []byte) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != 1 {
			t.Fatalf("cut %d: replayed %d records, want 1", cut, n)
		}
	}

	// Tear into the header of the second record.
	if err := os.Truncate(path, int64(headerSize+len("complete-record")+3)); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ReplayAll(path, func(rec []byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("torn header: err=%v n=%d", err, n)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	w.Append([]byte("aaaaaaaaaaaaaaaa"))
	w.Close()

	data, _ := os.ReadFile(path)
	data[headerSize+4] ^= 0xff // flip a payload byte
	os.WriteFile(path, data, 0o644)

	r, _ := Open(path)
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestCorruptLengthDetected(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	w.Append([]byte("hello"))
	w.Close()
	data, _ := os.ReadFile(path)
	// Make the length absurd; CRC covers it but the length sanity check
	// fires first and must not attempt the allocation.
	data[4] = 0xff
	data[5] = 0xff
	data[6] = 0xff
	data[7] = 0x7f
	os.WriteFile(path, data, 0o644)
	r, _ := Open(path)
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	w.Close()
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	defer w.Close()
	// Don't allocate MaxRecordSize; fake a slice header over a small array
	// is unsafe — instead just check the boundary arithmetic with a
	// moderately large record and the documented limit.
	if _, err := w.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestSyncToMakesRecordDurable(t *testing.T) {
	path := tempLog(t)
	var m Metrics
	w, err := Create(path, Options{Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	off, err := w.Append([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SyncTo(off); err != nil {
		t.Fatal(err)
	}
	// Without Close, the record must already be on disk.
	var n int
	if err := ReplayAll(path, func([]byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
	if w.Durable() < off {
		t.Fatalf("Durable = %d, want >= %d", w.Durable(), off)
	}
	s := m.Snapshot()
	if s.Appends != 1 || s.Durable != 1 || s.Syncs != 1 || s.SyncRequests != 1 {
		t.Fatalf("metrics after one sync write: %+v", s)
	}
	// A second SyncTo over the same offset is the coalesced fast path: no
	// new fsync, one more request served.
	if err := w.SyncTo(off); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.Syncs != 1 || s.SyncRequests != 2 {
		t.Fatalf("covered SyncTo: syncs=%d requests=%d, want 1 and 2", s.Syncs, s.SyncRequests)
	}
	w.Close()
}

// TestGroupCommitCoalesces drives N committers through the commit queue in
// two phases — everyone appends, then everyone requests durability
// concurrently — and asserts the leader's single barrier acknowledged all
// of them: strictly fewer fsyncs than committers.
func TestGroupCommitCoalesces(t *testing.T) {
	path := tempLog(t)
	var m Metrics
	w, err := Create(path, Options{Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const n = 16
	offs := make([]int64, n)
	for i := range offs {
		off, err := w.Append([]byte("rec"))
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = off
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.SyncTo(offs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	s := m.Snapshot()
	if s.SyncRequests != n {
		t.Fatalf("sync requests = %d, want %d", s.SyncRequests, n)
	}
	if s.Syncs >= n {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d committers", s.Syncs, n)
	}
	if s.Durable != n {
		t.Fatalf("durable horizon = %d, want %d", s.Durable, n)
	}
}

// TestGroupCommitLeaderFollower holds a leader inside the disk barrier via
// the test gate while followers append and queue behind it, proving the
// follower path: the NEXT leader's one fsync covers every queued follower.
func TestGroupCommitLeaderFollower(t *testing.T) {
	path := tempLog(t)
	var m Metrics
	w, err := Create(path, Options{Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const followers = 8
	gateEntered := make(chan struct{})
	gateRelease := make(chan struct{})
	var once sync.Once
	w.fsyncGate = func() {
		// Only the first leader is held; later barriers pass through.
		once.Do(func() {
			close(gateEntered)
			<-gateRelease
		})
	}

	leadOff, err := w.Append([]byte("leader"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.SyncTo(leadOff); err != nil {
			t.Error(err)
		}
	}()
	<-gateEntered

	// While the leader is stalled in its fsync, followers append and
	// request durability; they block on the commit queue.
	for i := 0; i < followers; i++ {
		off, err := w.Append([]byte("follower"))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			if err := w.SyncTo(off); err != nil {
				t.Error(err)
			}
		}(off)
	}
	close(gateRelease)
	wg.Wait()

	s := m.Snapshot()
	// The stalled leader's fsync covers only itself; one successor leader
	// covers all the followers appended meanwhile: exactly 2 barriers for
	// 1+followers committers.
	if s.Syncs != 2 {
		t.Fatalf("fsyncs = %d for %d committers, want 2", s.Syncs, followers+1)
	}
	if s.SyncRequests != followers+1 || s.Durable != followers+1 {
		t.Fatalf("metrics: %+v", s)
	}
}

// TestAbandonLosesStagedTail simulates the crash shape: appended-but-
// unflushed records vanish, fsync-covered records survive.
func TestAbandonLosesStagedTail(t *testing.T) {
	path := tempLog(t)
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := w.Append([]byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SyncTo(off); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := w.Abandon(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := ReplayAll(path, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "kept" {
		t.Fatalf("after abandon: %q, want only the synced record", got)
	}
}

func TestSizeAccounting(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	defer w.Close()
	w.Append(make([]byte, 100))
	if got := w.Size(); got != 100+headerSize {
		t.Fatalf("Size = %d", got)
	}
}

func TestPropertyRoundTripRandomRecords(t *testing.T) {
	err := quick.Check(func(recs [][]byte) bool {
		path := filepath.Join(t.TempDir(), "q.wal")
		w, err := Create(path, Options{})
		if err != nil {
			return false
		}
		for _, r := range recs {
			if _, err := w.Append(r); err != nil {
				return false
			}
		}
		w.Close()
		var got [][]byte
		if err := ReplayAll(path, func(rec []byte) error {
			got = append(got, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := tempLog(t)
	w, _ := Create(path, Options{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				rec := make([]byte, 1+rand.Intn(64))
				rec[0] = byte(g)
				w.Append(rec)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	w.Close()
	counts := map[byte]int{}
	if err := ReplayAll(path, func(rec []byte) error {
		counts[rec[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for g := byte(0); g < 4; g++ {
		if counts[g] != 500 {
			t.Fatalf("writer %d: %d records", g, counts[g])
		}
	}
}

func BenchmarkAppend256(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	w, _ := Create(path, Options{})
	defer w.Close()
	rec := make([]byte, 256)
	b.SetBytes(int64(len(rec) + headerSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(rec)
	}
}

type gatherCase struct {
	kind       keys.Kind
	key, value []byte
}

// gatherCases are the record shapes whose framing changes size: key
// lengths around the one-byte uvarint limit, value lengths around the
// two-byte one, and a tombstone.
func gatherCases() []gatherCase {
	var cases []gatherCase
	for _, kl := range []int{0, 127, 128} {
		for _, vl := range []int{0, 16383, 16384} {
			cases = append(cases, gatherCase{keys.KindSet, bytes.Repeat([]byte{'k'}, kl), bytes.Repeat([]byte{'v'}, vl)})
		}
	}
	return append(cases, gatherCase{keys.KindDelete, []byte("gone"), nil})
}

// TestAppendRecordMatchesEncodeRecord: the gather append writes the log
// Append(kv.EncodeRecord(...)) writes, byte for byte, and the reader gets
// every record back.
func TestAppendRecordMatchesEncodeRecord(t *testing.T) {
	dir := t.TempDir()
	gathered, built := filepath.Join(dir, "gathered.wal"), filepath.Join(dir, "built.wal")
	gw, err := Create(gathered, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := Create(built, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := gatherCases()
	for i, c := range cases {
		goff, err := gw.AppendRecord(c.kind, c.key, c.value)
		if err != nil {
			t.Fatal(err)
		}
		boff, err := bw.Append(kv.EncodeRecord(c.kind, c.key, c.value))
		if err != nil {
			t.Fatal(err)
		}
		if goff != boff {
			t.Fatalf("record %d ends at %d gathered, %d built", i, goff, boff)
		}
	}
	for _, w := range []*Writer{gw, bw} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	g, err := os.ReadFile(gathered)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(built)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, b) {
		t.Fatalf("gathered log (%d bytes) differs from the built one (%d bytes)", len(g), len(b))
	}
	i := 0
	err = ReplayAll(gathered, func(rec []byte) error {
		kind, key, value, err := kv.DecodeRecord(rec)
		if err != nil {
			return err
		}
		c := cases[i]
		if kind != c.kind || !bytes.Equal(key, c.key) || !bytes.Equal(value, c.value) {
			t.Fatalf("record %d: %v %d/%d bytes, want %v %d/%d", i, kind, len(key), len(value), c.kind, len(c.key), len(c.value))
		}
		i++
		return nil
	})
	if err != nil || i != len(cases) {
		t.Fatalf("replayed %d of %d records: %v", i, len(cases), err)
	}
}

// TestAppendAllocatesNothing: neither append builds anything on the heap —
// the header and framing go through the writer's scratch space.
func TestAppendAllocatesNothing(t *testing.T) {
	w, err := Create(tempLog(t), Options{Metrics: &Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := bytes.Repeat([]byte("r"), 256)
	key, value := []byte("some-key"), bytes.Repeat([]byte("v"), 256)
	for i := 0; i < 10; i++ { // warm
		w.Append(rec)
		w.AppendRecord(keys.KindSet, key, value)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := w.AppendRecord(keys.KindSet, key, value); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendRecord: %.1f allocations, want 0", n)
	}
}
