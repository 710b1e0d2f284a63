package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "000001.wal")
}

// TestRoundTrip replays what was appended, also with a staging buffer
// smaller than the records, which span it or outgrow it.
func TestRoundTrip(t *testing.T) {
	for _, opts := range []Options{{}, {BufferSize: 64}} {
		path := tempLog(t)
		w, err := Create(path, opts)
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
		for i, want := range records {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("buffer %d: record %d: %v", opts.BufferSize, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("buffer %d: record %d: got %d bytes, want %d", opts.BufferSize, i, len(got), len(want))
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("buffer %d: expected EOF, got %v", opts.BufferSize, err)
		}
		r.Close()
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
	s := walStats(&m)
	if s.AckedSeq != 1 || s.DurableSeq != 1 || s.WALSyncs != 1 || s.WALSyncRequests != 1 {
		t.Fatalf("metrics after one sync write: %+v", s)
	}
	// A second SyncTo over the same offset is the coalesced fast path: no
	// new fsync, one more request served.
	if err := w.SyncTo(off); err != nil {
		t.Fatal(err)
	}
	if s := walStats(&m); s.WALSyncs != 1 || s.WALSyncRequests != 2 {
		t.Fatalf("covered SyncTo: syncs=%d requests=%d, want 1 and 2", s.WALSyncs, s.WALSyncRequests)
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
	s := walStats(&m)
	if s.WALSyncRequests != n {
		t.Fatalf("sync requests = %d, want %d", s.WALSyncRequests, n)
	}
	if s.WALSyncs >= n {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d committers", s.WALSyncs, n)
	}
	if s.DurableSeq != n {
		t.Fatalf("durable horizon = %d, want %d", s.DurableSeq, n)
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

	s := walStats(&m)
	// The stalled leader's fsync covers only itself; one successor leader
	// covers all the followers appended meanwhile: exactly 2 barriers for
	// 1+followers committers.
	if s.WALSyncs != 2 {
		t.Fatalf("fsyncs = %d for %d committers, want 2", s.WALSyncs, followers+1)
	}
	if s.WALSyncRequests != followers+1 || s.DurableSeq != followers+1 {
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
		if _, err := os.Stat(path); len(recs) == 0 {
			return os.IsNotExist(err) // no record, no file
		}
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

// TestConcurrentAppends runs appenders that now and then sync: every
// record replays, each appender's in its order, and every acknowledged
// sync is covered by the file. With buffers a few records long, nearly
// every Append swaps buffers or waits for the spare, with and without
// write-through.
func TestConcurrentAppends(t *testing.T) {
	for _, opts := range []Options{{}, {BufferSize: 128}, {BufferSize: 128, WriteThrough: true}} {
		path := tempLog(t)
		w, err := Create(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		const writers, perWriter = 4, 500
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					rec := make([]byte, 3+rand.Intn(64))
					rec[0], rec[1], rec[2] = byte(g), byte(i), byte(i>>8)
					off, err := w.Append(rec)
					if err != nil {
						t.Error(err)
						return
					}
					if i%50 == 0 {
						if err := w.SyncTo(off); err != nil {
							t.Error(err)
							return
						}
						if st, err := os.Stat(path); err != nil {
							t.Error(err)
						} else if st.Size() < off {
							t.Errorf("%+v: synced to %d, file holds %d bytes", opts, off, st.Size())
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		next := make([]int, writers)
		if err := ReplayAll(path, func(rec []byte) error {
			g, i := rec[0], int(rec[1])|int(rec[2])<<8
			if i != next[g] {
				t.Fatalf("%+v: writer %d: record %d replayed where %d was due", opts, g, i, next[g])
			}
			next[g]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for g, n := range next {
			if n != perWriter {
				t.Fatalf("%+v: writer %d: %d of %d records", opts, g, n, perWriter)
			}
		}
	}
}

// TestAppendProceedsDuringFileWrite holds the file write of a full buffer
// and shows a second Append completing meanwhile: appenders copy into the
// other buffer and wait on no one's write syscall. If the second Append
// waits for the held write, the test fails at its deadline rather than
// hang, releasing the write first.
func TestAppendProceedsDuringFileWrite(t *testing.T) {
	path := tempLog(t)
	w, err := Create(path, Options{BufferSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.writeGate = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	recs := [][]byte{bytes.Repeat([]byte("a"), 40), bytes.Repeat([]byte("b"), 40), []byte("cccc")}
	if _, err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	// The second record does not fit: its appender swaps buffers and
	// writes the first one, which the gate holds.
	filler := make(chan error, 1)
	go func() {
		_, err := w.Append(recs[1])
		filler <- err
	}()
	const deadline = 5 * time.Second
	select {
	case <-entered:
	case <-time.After(deadline):
		t.Fatal("the full buffer was never written")
	}
	appended := make(chan error, 1)
	go func() {
		_, err := w.Append(recs[2])
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(deadline):
		close(release)
		t.Fatalf("an Append waited %v behind another appender's file write", deadline)
	}
	close(release)
	if err := <-filler; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := ReplayAll(path, func(rec []byte) error {
		got = append(got, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d: %q, want %q", i, got[i], recs[i])
		}
	}
}

// TestFailedWriteIsSticky: once a file write fails, the records it held
// are lost, so no later Append, write-out or SyncTo may succeed.
func TestFailedWriteIsSticky(t *testing.T) {
	w, err := Create(tempLog(t), Options{BufferSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err != nil { // the first write-out creates the file
		t.Fatal(err)
	}
	off, err := w.Append(bytes.Repeat([]byte("a"), 40))
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close() // every write to the file fails from here on
	if _, err := w.Append(bytes.Repeat([]byte("b"), 40)); err == nil {
		t.Fatal("the Append that wrote the full buffer to a closed file succeeded")
	}
	if _, err := w.Append([]byte("c")); err == nil {
		t.Fatal("an Append after a failed write succeeded")
	}
	if err := w.flush(); err == nil {
		t.Fatal("a write-out after a failed write succeeded")
	}
	if err := w.SyncTo(off); err == nil {
		t.Fatal("a SyncTo over a lost record succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a failed write reported success")
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
// the header and framing are copied straight into the staging buffer.
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

// TestNoAppendNoStagingBuffer: the staging buffers are allocated by the
// first append and the file is created by the first write-out, so a
// segment that never gets a record — a generation that took only unlogged
// writes — costs no staging memory and no file, and Sync, a write-out, Close and
// Abandon of it wait for nothing and touch no file.
func TestNoAppendNoStagingBuffer(t *testing.T) {
	dir := t.TempDir()
	const segments = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < segments; i++ {
		w, err := Create(filepath.Join(dir, fmt.Sprintf("%06d.wal", i)), Options{Metrics: &Metrics{}})
		if err != nil {
			t.Fatal(err)
		}
		if w.buf != nil || w.spare != nil {
			t.Fatalf("Create allocated staging buffers of %d and %d bytes", cap(w.buf), cap(w.spare))
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.buf != nil || w.spare != nil {
			t.Fatal("Close of an empty segment allocated staging buffers")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / segments; per >= 64<<10 {
		t.Fatalf("an empty segment allocated %d bytes, at least one 64 KiB staging buffer", per)
	}
	abandoned, err := Create(filepath.Join(dir, "abandoned.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := abandoned.Abandon(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("segments with no record left %d files, the first %s", len(ents), ents[0].Name())
	}

	path := filepath.Join(dir, "appended.wal")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	off, err := w.Append([]byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) != 64<<10 || cap(w.spare) != 64<<10 {
		t.Fatalf("first append staged in buffers of %d and %d bytes, want 64 KiB each", cap(w.buf), cap(w.spare))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a staged record created the file before any write-out: %v", err)
	}
	if err := w.SyncTo(off); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != off {
		t.Fatalf("after the first write-out: %v, want a file of %d bytes", err, off)
	}
}

// TestFailedFileCreateIsSticky: the file is created by the first
// write-out, so a path that cannot be created fails that write like any
// failed write, and nothing later succeeds over the lost record.
func TestFailedFileCreateIsSticky(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "missing", "000001.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := w.Append([]byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SyncTo(off); err == nil {
		t.Fatal("SyncTo succeeded with no file to write")
	}
	if _, err := w.Append([]byte("s")); err == nil {
		t.Fatal("an Append after the failed create succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after the failed create reported success")
	}
}

// walStats reads m through the views Register exposes.
func walStats(m *Metrics) kv.Stats {
	reg := obs.NewRegistry()
	m.Register(reg)
	return kv.StatsOf(reg.Snapshot())
}

// replayed returns the records path holds: none when there is no file.
func replayed(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	err := ReplayAll(path, func(rec []byte) error {
		got = append(got, bytes.Clone(rec))
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return got
}

// chain returns a live segment with staged records and its successor,
// which has none yet.
func chain(t *testing.T, opts Options, staged int) (prev, next *Writer, prevPath, nextPath string) {
	t.Helper()
	dir := t.TempDir()
	prevPath, nextPath = filepath.Join(dir, "000001.wal"), filepath.Join(dir, "000002.wal")
	prev, err := Create(prevPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < staged; i++ {
		if _, err := prev.Append([]byte(fmt.Sprintf("prev-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return prev, prev.Successor(nextPath), prevPath, nextPath
}

// TestSuccessorWritesPredecessorFirst: the successor's first write-out
// finds the predecessor's staged records already in the predecessor's
// file, which a crash at that write (a copy of the files) then holds: no
// record of the successor without every earlier one of the predecessor.
// The successor is configured as its predecessor is.
func TestSuccessorWritesPredecessorFirst(t *testing.T) {
	prev, next, prevPath, _ := chain(t, Options{}, 20)
	defer next.Close()
	writes := 0
	next.writeGate = func() {
		writes++
		if got := replayed(t, prevPath); len(got) != 20 {
			t.Errorf("successor write %d: the predecessor's file holds %d of its 20 records", writes, len(got))
		}
	}
	if _, err := next.Append([]byte("next-0")); err != nil {
		t.Fatal(err)
	}
	if err := next.flush(); err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Fatal("the successor wrote nothing out")
	}
	if prev.Durable() != 0 {
		t.Fatal("a write-out synced the predecessor")
	}

	var m Metrics
	events := obs.NewEventLog(0)
	_, next, _, _ = chain(t, Options{Metrics: &m, BufferSize: 256, WriteThrough: true, Events: events}, 0)
	defer next.Close()
	if next.metrics != &m || next.bufSize != 256 || !next.writeThrough || next.events != events {
		t.Fatal("the successor is not configured as its predecessor")
	}
}

// TestSuccessorSyncToSyncsPredecessor: a successor's SyncTo, and its Sync
// with nothing of its own to sync, leave the predecessor synced.
func TestSuccessorSyncToSyncsPredecessor(t *testing.T) {
	prev, next, _, _ := chain(t, Options{}, 5)
	defer next.Close()
	off, err := next.Append([]byte("next-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SyncTo(off); err != nil {
		t.Fatal(err)
	}
	if prev.Durable() != prev.Size() || next.Durable() != off {
		t.Fatalf("after the successor's SyncTo: predecessor durable %d of %d, successor %d of %d",
			prev.Durable(), prev.Size(), next.Durable(), off)
	}

	prev, next, _, _ = chain(t, Options{}, 5)
	defer next.Close()
	if err := next.Sync(); err != nil {
		t.Fatal(err)
	}
	if prev.Durable() != prev.Size() {
		t.Fatalf("after an empty successor's Sync: predecessor durable %d of %d", prev.Durable(), prev.Size())
	}
}

// TestClosedPredecessorIsSkipped: a predecessor its owner closed is
// neither written nor synced again, and the successor drops its link.
func TestClosedPredecessorIsSkipped(t *testing.T) {
	prev, next, prevPath, nextPath := chain(t, Options{}, 5)
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(prevPath); err != nil { // retired, as after a flush
		t.Fatal(err)
	}
	off, err := next.Append([]byte("next-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SyncTo(off); err != nil {
		t.Fatalf("SyncTo over a closed predecessor: %v", err)
	}
	if next.prev.Load() != nil {
		t.Fatal("the successor still links a closed predecessor")
	}
	if _, err := os.Stat(prevPath); !os.IsNotExist(err) {
		t.Fatalf("the closed predecessor's file came back: %v", err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, nextPath); len(got) != 1 {
		t.Fatalf("successor holds %d records, want 1", len(got))
	}
	// A writer made from a segment whose own predecessor is closed
	// starts the chain afresh: at most the live pair is linked.
	a, b, _, _ := chain(t, Options{}, 0)
	a.Close()
	b.Successor(filepath.Join(t.TempDir(), "000003.wal"))
	if b.prev.Load() != nil {
		t.Fatal("Successor kept the closed grandparent linked")
	}
}

// TestSuccessorCloseAndAbandonReachPredecessor: closing the successor
// closes a live predecessor, writing its staged records out first, and
// abandoning the successor abandons it, losing them as a crash would.
func TestSuccessorCloseAndAbandonReachPredecessor(t *testing.T) {
	prev, next, prevPath, nextPath := chain(t, Options{}, 5)
	if _, err := next.Append([]byte("next-0")); err != nil {
		t.Fatal(err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := prev.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append to the predecessor after the successor's Close: %v, want ErrClosed", err)
	}
	if p, n := replayed(t, prevPath), replayed(t, nextPath); len(p) != 5 || len(n) != 1 {
		t.Fatalf("after Close: predecessor holds %d of 5 records, successor %d of 1", len(p), len(n))
	}

	prev, next, prevPath, nextPath = chain(t, Options{}, 5)
	if _, err := next.Append([]byte("next-0")); err != nil {
		t.Fatal(err)
	}
	if err := next.Abandon(); err != nil {
		t.Fatal(err)
	}
	if _, err := prev.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append to the predecessor after the successor's Abandon: %v, want ErrClosed", err)
	}
	if p, n := replayed(t, prevPath), replayed(t, nextPath); len(p) != 0 || len(n) != 0 {
		t.Fatalf("after Abandon: predecessor holds %d records, successor %d; want both staging tails lost", len(p), len(n))
	}
}

// TestPredecessorClosedDuringSync: a predecessor its owner closes while
// the successor's barrier is syncing it — a flush retiring the sealed
// segment — has its fsync land before its file closes, so the barrier
// succeeds, and the successor is not left with a sticky sync error.
func TestPredecessorClosedDuringSync(t *testing.T) {
	prev, next, _, _ := chain(t, Options{}, 5)
	defer next.Close()
	parked, release := make(chan struct{}), make(chan struct{})
	prev.fsyncGate = func() {
		close(parked)
		<-release
	}
	off, err := next.Append([]byte("next-0"))
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- next.SyncTo(off) }()
	<-parked
	closed := make(chan error, 1)
	go func() { closed <- prev.Close() }()
	select {
	case <-closed: // the file closed under the parked fsync
	case <-time.After(100 * time.Millisecond): // Close waits for it
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatalf("a barrier whose predecessor closed under it: %v", err)
	}
	if off, err = next.Append([]byte("next-1")); err != nil {
		t.Fatal(err)
	}
	if err := next.SyncTo(off); err != nil {
		t.Fatalf("a later barrier: %v", err)
	}
}
