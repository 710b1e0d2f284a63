// Package wal implements the on-disk commit log (§2.1: "updates are
// appended to an on-disk commit-log before being applied to the in-memory
// component"). One log file exists per memtable generation; recovery
// replays the logs newer than the manifest's persisted log number.
//
// Framing: every record is [crc32c(4) | length(4) | payload]. The CRC
// covers the length field and the payload, so a torn length is detected
// too. Reads tolerate a truncated final record (the normal crash shape for
// an append-only file) by reporting ErrTruncated, which recovery treats as
// end-of-log; any other inconsistency is ErrCorrupt.
//
// # Group commit
//
// Durability is decoupled from appending. Append never fsyncs: it copies
// the record into the active one of two staging buffers under a short
// mutex and returns the log offset the record ends at. The appender that
// fills a buffer swaps in the other and writes the full one to the file
// after releasing the mutex, so no appender waits behind another's write
// syscall unless both buffers are full. One write is in flight at a time,
// which keeps the file in append order.
//
// A committer that needs durability calls SyncTo with that offset;
// concurrent committers coalesce into a leader/follower commit queue: the
// first caller through becomes the leader, writes out what is staged and
// fsyncs once on behalf of EVERYONE whose record was appended by then, and
// the followers — which were blocked behind the in-flight barrier —
// observe that the durable horizon already covers them and return without
// touching the disk. One disk barrier thus acknowledges many writers,
// which is what keeps a memory-speed ingest path (the paper's whole point)
// alive when durability is turned on: N concurrent sync committers cost
// O(1), not O(N), fsyncs.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
)

var (
	// ErrTruncated marks a clean torn tail: everything before it replayed.
	ErrTruncated = errors.New("wal: truncated record at end of log")
	// ErrCorrupt marks a checksum or framing violation before the tail.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed is returned by operations on a closed writer.
	ErrClosed = errors.New("wal: closed")
)

// MaxRecordSize bounds a single record; larger lengths are treated as
// corruption rather than as allocation requests.
const MaxRecordSize = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerSize = 8

// Metrics aggregates commit-log counters across every segment of one
// store. All of a store's Writers share one Metrics (via Options), so the
// counters describe the store's whole log stream in commit order, across
// generation switches.
//
// The acked-vs-durable boundary: records with commit index <= Durable are
// crash-durable (covered by an fsync, or marked durable by the store when
// their segment's contents reached sstables); the records in
// (Durable, Appends] are acknowledged but still buffered — the window a
// crash can lose and a Sync barrier closes.
type Metrics struct {
	appends      atomic.Uint64 // records appended, in commit order
	durable      atomic.Uint64 // high-water commit index known crash-durable
	syncs        atomic.Uint64 // fsyncs issued by the commit queue
	syncRequests atomic.Uint64 // durability requests served (coalescing denominator)
}

// Register exposes the counters in reg, as views read at snapshot time:
// the acked commit index (flodb_wal_appends_total), the durable one
// (flodb_wal_durable_total), and the fsyncs issued and durability requests
// they served, whose ratio is the group-commit coalescing factor.
func (m *Metrics) Register(reg *obs.Registry) {
	reg.CounterFunc("flodb_wal_appends_total", "WAL records appended (acked commit index).", m.appends.Load)
	reg.CounterFunc("flodb_wal_durable_total", "Highest WAL commit index known crash-durable.", m.durable.Load)
	reg.CounterFunc("flodb_wal_syncs_total", "fsyncs issued by the group-commit queue.", m.syncs.Load)
	reg.CounterFunc("flodb_wal_sync_requests_total", "Durability requests served by the commit queue.", m.syncRequests.Load)
}

// advanceDurable raises the durable high-water mark to idx (never lowers).
func (m *Metrics) advanceDurable(idx uint64) {
	if m == nil {
		return
	}
	for {
		cur := m.durable.Load()
		if cur >= idx || m.durable.CompareAndSwap(cur, idx) {
			return
		}
	}
}

// Writer appends framed records to a log file. Safe for concurrent use.
//
// Append stages a record and returns immediately; SyncTo (or Sync) makes
// staged records durable through the group-commit queue described in the
// package comment. Close does NOT fsync — callers that need the tail
// durable must Sync first (DB close paths do).
type Writer struct {
	// mu guards staging: the two buffers, the offsets, the sticky write
	// error and closed. It is held only for memory-speed work, never across
	// a write or an fsync, so appenders are not serialized behind the disk.
	mu sync.Mutex
	// written signals, under mu, the end of a file write: spare is back.
	written sync.Cond
	f       *os.File
	// buf is the active buffer appenders copy into. spare is the other
	// one, nil while it is being written to the file: one write is in
	// flight at a time, so the file receives the buffers in order.
	buf, spare []byte
	bufSize    int   // the buffers' capacity (Options.BufferSize)
	end        int64 // bytes appended (logical end offset, incl. framing)
	flushed    int64 // bytes handed to the file by completed writes
	werr       error // sticky: the first failed file write
	closed     bool
	lastRec    uint64 // commit index (Metrics.appends) of the last record
	// writeThrough writes every record to the file before Append returns
	// (Options.WriteThrough).
	writeThrough bool

	// commitMu is the commit queue: holders are sync leaders, waiters are
	// followers. synced is the durable offset; it is atomic so the
	// fast path can check it without any lock.
	commitMu sync.Mutex
	synced   atomic.Int64
	// syncErr is sticky: once an fsync fails the log's durable horizon
	// can no longer advance, and every subsequent durability request
	// must fail rather than falsely ack.
	syncErr atomic.Pointer[error]

	metrics *Metrics

	// events receives group-commit stall events (may be nil).
	events *obs.EventLog

	// fsyncGate, when non-nil, runs inside the leader's commit (after the
	// flush, before the fsync). Tests use it to hold a leader in the
	// barrier and observe followers coalescing behind it. writeGate, when
	// non-nil, runs before each file write, outside mu: tests use it to
	// hold a write and watch appenders go on.
	fsyncGate func()
	writeGate func()
}

// DefaultStallThreshold is the group-commit wait from which a wal-stall
// event is emitted when Options.Events is set: long enough that healthy
// fsyncs (hundreds of µs on SSDs) stay quiet, short enough that a
// contended barrier shows up.
const DefaultStallThreshold = 10 * time.Millisecond

// Options configure a Writer.
type Options struct {
	// BufferSize is the size of each of the two staging buffers; 0 means
	// 64 KiB.
	BufferSize int
	// Metrics, when non-nil, receives this writer's counters. Share one
	// Metrics across a store's segments to track the store-wide
	// acked-vs-durable boundary.
	Metrics *Metrics
	// WriteThrough makes Append push every record to the OS before
	// acknowledging it (a file write per record, or per group of records
	// staged while the previous write ran; still no fsync). With it on, a
	// process kill — SIGKILL included — loses no acknowledged record to
	// user-space staging: the buffered window shrinks to what a MACHINE
	// crash can lose.
	WriteThrough bool
	// Events, when non-nil, receives a wal-stall event whenever a
	// committer waits DefaultStallThreshold or longer in the
	// group-commit queue (leader fsync time included).
	Events *obs.EventLog
}

// Create creates (truncating) a log file at path.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	bs := opts.BufferSize
	if bs <= 0 {
		bs = 64 << 10
	}
	w := &Writer{
		f:            f,
		buf:          make([]byte, 0, bs),
		spare:        make([]byte, 0, bs),
		bufSize:      bs,
		metrics:      opts.Metrics,
		writeThrough: opts.WriteThrough,
		events:       opts.Events,
	}
	w.written.L = &w.mu
	return w, nil
}

// Append stages one record and returns the log offset it ends at — the
// token a committer hands to SyncTo when it needs the record durable. The
// record is acknowledged into the commit order (Metrics.Appends) but NOT
// durable until an fsync covers the returned offset.
func (w *Writer) Append(rec []byte) (int64, error) {
	return w.gather(nil, rec, nil, nil)
}

// AppendRecord is Append(kv.EncodeRecord(kind, key, value)) without the
// record: the log receives the same bytes, gathered from the framing
// kv.RecordFraming writes and from key and value where they lie.
func (w *Writer) AppendRecord(kind keys.Kind, key, value []byte) (int64, error) {
	var frame [kv.MaxRecordFraming]byte
	pre, mid := kv.RecordFraming(frame[:], kind, len(key), len(value))
	return w.gather(pre, key, mid, value)
}

// gather stages the record pre | a | mid | b. The checksum is taken
// before the lock; under it, the header and the four parts are copied
// into the active buffer. The appender whose record fills the buffer
// copies what fits, swaps in the spare buffer for the rest, and writes the
// full one to the file after releasing mu, so other appenders copy on
// meanwhile. Writes are thus whole buffers at buffer-aligned offsets,
// which the kernel takes faster than writes that start mid-page. An
// appender waits only if its record would fill the buffer while the spare
// is still being written (the disk is behind).
func (w *Writer) gather(pre, a, mid, b []byte) (int64, error) {
	n := len(pre) + len(a) + len(mid) + len(b)
	if n > MaxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", n)
	}
	var head [headerSize]byte
	binary.LittleEndian.PutUint32(head[4:], uint32(n))
	crc := crcFraming(0, head[4:])
	crc = crcFraming(crc, pre)
	crc = crc32.Update(crc, castagnoli, a)
	crc = crcFraming(crc, mid)
	crc = crc32.Update(crc, castagnoli, b)
	binary.LittleEndian.PutUint32(head[:4], crc)

	w.mu.Lock()
	err := w.stagingErr()
	for err == nil && w.spare == nil && len(w.buf)+headerSize+n >= cap(w.buf) {
		w.written.Wait()
		err = w.stagingErr()
	}
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	var full []byte
	for _, p := range [...][]byte{head[:], pre, a, mid, b} {
		if room := cap(w.buf) - len(w.buf); full == nil && len(p) >= room {
			w.buf = append(w.buf, p[:room]...)
			p = p[room:]
			full = w.swap()
		}
		w.buf = append(w.buf, p...)
	}
	w.end += int64(headerSize + n)
	if w.metrics != nil {
		w.lastRec = w.metrics.appends.Add(1)
	}
	off, fullEnd := w.end, w.end-int64(len(w.buf))
	w.mu.Unlock()

	if full != nil {
		if err := w.writeOut(full, fullEnd); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	}
	if w.writeThrough {
		if err := w.flushTo(off); err != nil {
			return 0, fmt.Errorf("wal: append flush: %w", err)
		}
	}
	return off, nil
}

// stagingErr is why nothing more can be staged, if anything: the writer
// is closed, or a write to the file failed. w.mu is held.
func (w *Writer) stagingErr() error {
	if w.closed {
		return ErrClosed
	}
	if w.werr != nil {
		return fmt.Errorf("wal: append: %w", w.werr)
	}
	return nil
}

// swap hands the active buffer over for writing and makes the spare
// active. The spare must be back (w.spare != nil). w.mu is held.
func (w *Writer) swap() []byte {
	full := w.buf
	w.buf, w.spare = w.spare, nil
	return full
}

// writeOut writes p, a buffer swap took out, to the file; p ends at log
// offset end. It runs outside w.mu, then returns p as the spare buffer.
func (w *Writer) writeOut(p []byte, end int64) error {
	if w.writeGate != nil {
		w.writeGate()
	}
	_, err := w.f.Write(p)
	if cap(p) > w.bufSize {
		p = make([]byte, 0, w.bufSize) // a record larger than the buffer grew it
	}
	w.mu.Lock()
	if err == nil {
		w.flushed = end
	} else if w.werr == nil {
		w.werr = err
	}
	w.spare = p[:0]
	w.written.Broadcast()
	w.mu.Unlock()
	return err
}

// flushTo returns once every byte below off has been written to the file,
// writing the active buffer itself when no write is in flight.
func (w *Writer) flushTo(off int64) error {
	w.mu.Lock()
	for w.flushed < off && w.werr == nil {
		if w.spare == nil {
			w.written.Wait()
			continue
		}
		end := w.end
		full := w.swap()
		w.mu.Unlock()
		if err := w.writeOut(full, end); err != nil {
			return err
		}
		w.mu.Lock()
	}
	err := w.werr
	w.mu.Unlock()
	return err
}

// crcFraming is crc32.Update(crc, castagnoli, p) a byte at a time, for the
// few bytes of a header or framing: crc32.Update passes p to a function
// value, which moves a stack buffer to the heap.
func crcFraming(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, v := range p {
		crc = castagnoli[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// SyncTo blocks until every record at offset <= off is durable, issuing at
// most one fsync and coalescing with concurrent committers (see the
// package comment). It is the commit point of a Sync-durability write.
func (w *Writer) SyncTo(off int64) error {
	if w.metrics != nil {
		w.metrics.syncRequests.Add(1)
	}
	// Fast path: a previous leader's barrier already covers us. (synced
	// only advances over fsync-verified bytes, so no error check needed.)
	if w.synced.Load() >= off {
		return nil
	}
	var queuedAt time.Time
	if w.events != nil {
		queuedAt = time.Now()
	}
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	if err := w.loadSyncErr(); err != nil {
		return err
	}
	// Follower path: the leader we queued behind captured its target
	// AFTER our Append (we held off until it left the barrier), so its
	// fsync covered our record.
	if w.synced.Load() >= off {
		w.noteStall(queuedAt, "follower")
		return nil
	}
	// Leader path: capture the horizon, write the staged bytes up to it,
	// then fsync — all with mu RELEASED, so appenders and future followers
	// keep streaming while the barrier runs.
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	target := w.end
	targetRec := w.lastRec
	w.mu.Unlock()
	if err := w.flushTo(target); err != nil {
		err = fmt.Errorf("wal: flush: %w", err)
		w.storeSyncErr(err)
		return err
	}

	if w.fsyncGate != nil {
		w.fsyncGate()
	}
	if err := w.f.Sync(); err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
		w.storeSyncErr(err)
		return err
	}
	w.synced.Store(target)
	if w.metrics != nil {
		w.metrics.syncs.Add(1)
		w.metrics.advanceDurable(targetRec)
	}
	w.noteStall(queuedAt, "leader")
	return nil
}

// noteStall emits a wal-stall event when a committer's time in the
// group-commit queue (from enqueue to durable, fsync included) exceeds
// the threshold — the signature of a slow disk barrier or a long convoy
// behind one.
func (w *Writer) noteStall(queuedAt time.Time, role string) {
	if w.events == nil || queuedAt.IsZero() {
		return
	}
	if d := time.Since(queuedAt); d >= DefaultStallThreshold {
		w.events.Emit(obs.Event{Type: obs.EventWALStall, Dur: d, Detail: role})
	}
}

// Flush pushes everything appended before the call to the OS (no disk
// barrier): those records survive a process crash past this point, though
// a machine crash can still lose them. Segment rotation seals call it so
// that the cross-segment replay order stays a clean prefix — a sealed
// segment never holds unflushed records behind a successor segment that
// is already accumulating flushed ones.
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	off := w.end
	w.mu.Unlock()
	if err := w.flushTo(off); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Sync is the durability barrier over the whole segment: it blocks until
// everything appended before the call is durable.
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	off := w.end
	w.mu.Unlock()
	return w.SyncTo(off)
}

func (w *Writer) loadSyncErr() error {
	if p := w.syncErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *Writer) storeSyncErr(err error) {
	w.syncErr.CompareAndSwap(nil, &err)
}

// Size returns bytes appended so far (including framing).
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

// Durable returns the offset covered by the last disk barrier. The bytes
// in (Durable, Size] are staged but would be lost by a crash.
func (w *Writer) Durable() int64 { return w.synced.Load() }

// MarkContentsDurable records that every record in this segment is
// crash-durable through some OTHER channel — the store calls it after the
// segment's memtable reached sstables (at which point the log file itself
// is obsolete). It only moves the metrics horizon; it does not touch the
// file.
func (w *Writer) MarkContentsDurable() {
	w.mu.Lock()
	idx := w.lastRec
	w.mu.Unlock()
	if w.metrics != nil {
		w.metrics.advanceDurable(idx)
	}
}

// Close flushes and closes the file. It does not fsync; call Sync first if
// durability is required.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	off := w.end
	w.mu.Unlock()
	err := w.flushTo(off)
	w.waitIdle()
	cerr := w.f.Close()
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return cerr
}

// Abandon closes the file WITHOUT flushing the active buffer, discarding
// every record appended since the last write to the file — the write-loss
// shape of a machine crash (records acked-buffered but never flushed). A
// write already in flight lands first. Crash-recovery tests use it to open
// the acked-but-lost window deliberately; production code has no reason to
// call it.
func (w *Writer) Abandon() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	w.waitIdle()
	return w.f.Close()
}

// waitIdle waits out the file write in flight, if any. On a closed writer
// that has been flushed no new one starts, so the file may then be closed.
func (w *Writer) waitIdle() {
	w.mu.Lock()
	for w.spare == nil {
		w.written.Wait()
	}
	w.mu.Unlock()
}

// Reader replays a log file sequentially.
type Reader struct {
	br  *bufio.Reader
	f   *os.File
	hdr [headerSize]byte
	buf []byte
}

// readChunk is the most a Reader allocates ahead of the bytes it has read:
// a record's buffer grows with what the log holds, not with the length its
// header claims, so a corrupt length costs no more memory than the file.
const readChunk = 64 << 10

// Open opens a log file for replay.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Reader{br: bufio.NewReaderSize(f, 64<<10), f: f}, nil
}

// Next returns the next record. The returned slice is reused by subsequent
// calls. At the end of a clean log it returns io.EOF; at a torn tail,
// ErrTruncated; on a mid-log inconsistency, ErrCorrupt.
func (r *Reader) Next() ([]byte, error) {
	hdr := r.hdr[:]
	n, err := io.ReadFull(r.br, hdr)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF || (err == nil && n < headerSize) {
		return nil, ErrTruncated
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[4:])
	if length > MaxRecordSize {
		return nil, fmt.Errorf("%w: implausible length %d", ErrCorrupt, length)
	}
	r.buf = r.buf[:0]
	for len(r.buf) < int(length) {
		// Past what is already allocated, grow by at most what has been
		// read so far (at least readChunk) before reading it.
		want := int(length) - len(r.buf)
		if free := cap(r.buf) - len(r.buf); want > free {
			r.buf = slices.Grow(r.buf, min(want, max(len(r.buf), readChunk)))
			want = min(want, cap(r.buf)-len(r.buf))
		}
		m, err := io.ReadFull(r.br, r.buf[len(r.buf):len(r.buf)+want])
		r.buf = r.buf[:len(r.buf)+m]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTruncated
		}
		if err != nil {
			return nil, fmt.Errorf("wal: read payload: %w", err)
		}
	}
	crc := crc32.Update(0, castagnoli, hdr[4:])
	crc = crc32.Update(crc, castagnoli, r.buf)
	if crc != binary.LittleEndian.Uint32(hdr[:4]) {
		return nil, ErrCorrupt
	}
	return r.buf, nil
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// ReplayAll reads records until the end of the log, invoking fn on each.
// It returns nil on a clean or torn-tail end and the corruption error
// otherwise. fn's record slice is only valid during the call.
func ReplayAll(path string, fn func(rec []byte) error) error {
	r, err := Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		switch {
		case err == io.EOF:
			return nil
		case errors.Is(err, ErrTruncated):
			return nil
		case err != nil:
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
