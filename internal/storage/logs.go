package storage

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/wal"
)

// The log-segment lifecycle every engine shares. Each memtable logs to a
// WAL segment of its own, and a write is acknowledged once its record is
// staged there, before any disk barrier covers it. The functions below
// are the one place that decides when those records become durable and
// when a segment may go: replay at open, the commit sync of a Sync-class
// write, retirement once a flush has put the memtable in sstables, the
// tail sync at close, and the crash that skips all of it. The order
// between a sealed segment and its successor is not decided here: a
// segment NextLog makes keeps it itself (wal's segment order), so each
// function takes only the active segment and reaches a live sealed one
// through it. The engines pass their memtables and segments in; nothing
// here depends on which engine calls it.

// CreateLog allocates a file number for the first log segment an engine
// opens, configured by opts. The segment's file is created by its first
// write-out (wal.Create), so a generation that logs nothing leaves no
// file, and opening one cannot fail.
func (s *Store) CreateLog(opts wal.Options) (uint64, *wal.Writer) {
	num := s.NewFileNum()
	w, _ := wal.Create(WALFileName(s.dir, num), opts)
	return num, w
}

// NextLog allocates the log segment of the memtable that succeeds prev's:
// prev's successor (wal.Writer.Successor), configured as prev is.
func (s *Store) NextLog(prev *wal.Writer) (uint64, *wal.Writer) {
	num := s.NewFileNum()
	return num, prev.Successor(WALFileName(s.dir, num))
}

// A ReplayMem is the memtable one replayed segment fills. Insert takes
// each op with the sequence number replay assigned it; key and value
// alias replay's buffer, so it copies what it keeps.
type ReplayMem interface {
	Insert(key []byte, seq uint64, kind keys.Kind, value []byte)
	NewIterator() InternalIterator
}

// RecoverLogs replays the segments a crash or a failed close left: every
// one at or above the manifest's log number, oldest first (LevelDB's
// recovery shape). Each segment's ops are numbered on from the manifest's
// last sequence number into a fresh memtable from newMem, which is
// flushed to L0 when it holds anything; then the segment is removed. A
// batch is one record, and a torn record fails its CRC as a whole, so
// replay applies either every op of a batch or none. It returns the last
// sequence number assigned.
func (s *Store) RecoverLogs(newMem func() ReplayMem) (uint64, error) {
	seq := s.LastSeq()
	segs, err := liveLogs(s.dir, s.LogNum())
	if err != nil {
		return 0, err
	}
	for _, num := range segs {
		mem, n := newMem(), 0
		err := wal.ReplayAll(WALFileName(s.dir, num), func(rec []byte) error {
			return kv.ForEachOp(rec, func(kind keys.Kind, key, value []byte) error {
				seq++
				n++
				mem.Insert(key, seq, kind, value)
				return nil
			})
		})
		if err != nil {
			return 0, fmt.Errorf("storage: replay wal %d: %w", num, err)
		}
		if n > 0 {
			if _, err := s.Flush(mem.NewIterator(), num+1, seq); err != nil {
				return 0, fmt.Errorf("storage: flush recovered wal %d: %w", num, err)
			}
		}
		os.Remove(WALFileName(s.dir, num))
	}
	return seq, nil
}

// liveLogs lists the numbers of dir's log segments at or above logNum,
// ascending.
func liveLogs(dir string, logNum uint64) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, ent := range entries {
		kind, num := ParseFileName(ent.Name())
		if kind == KindWAL && num >= logNum {
			segs = append(segs, num)
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// SyncLog is the barrier over an engine's live segments, given the
// active one: it returns once every record appended to it, or to the
// sealed segment before it, before the call is durable. A segment closed
// underneath the caller was retired by a completed flush, so its records
// are durable through sstables.
func SyncLog(w *wal.Writer) error {
	if err := w.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// CommitSync is the commit point of a Sync-class write whose record sits
// at off in segment w (nil when the write was not logged): it returns
// once a disk barrier covers the record and every earlier one, the
// sealed segment's included (wal's segment order), so a Sync-acked write
// never survives a crash that loses an earlier acked write.
func CommitSync(w *wal.Writer, off int64) error {
	if w == nil {
		return nil
	}
	if err := w.SyncTo(off); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// FlushLog writes a sealed memtable (it, holding records up to lastSeq) to
// L0 and retires its segment w, number num. The flush makes every record
// in the segment durable whether or not an fsync ever covered it, so the
// acked-vs-durable boundary advances past them before the segment closes
// and its file goes. next is the segment that takes writes after this
// one; 0 moves the manifest's log number just past num.
func (s *Store) FlushLog(it InternalIterator, lastSeq uint64, w *wal.Writer, num, next uint64) error {
	if next == 0 {
		next = num + 1
	}
	if _, err := s.Flush(it, next, lastSeq); err != nil {
		return err
	}
	w.MarkContentsDurable()
	err := w.Close()
	os.Remove(WALFileName(s.dir, num))
	return err
}

// DropLog retires segment w, number num, without flushing its memtable:
// the persist that discards, which a memory-component-only measurement
// runs (FloDB's DropPersist). It closes the segment and removes its file;
// it writes no table and no manifest edit, so the manifest's log number
// stays where it was, and recovery finds no file below the live ones.
func (s *Store) DropLog(w *wal.Writer, num uint64) error {
	err := w.Close()
	os.Remove(WALFileName(s.dir, num))
	return err
}

// Shutdown persists what an engine's memory component still holds and
// closes its logs and the store, once the engine's background work has
// stopped. Unless err, the engine's sticky flush failure, is set, the
// active memtable (it, holding records up to lastSeq) is flushed when it
// holds anything and its segment (active, number num) retired. The
// active segment is then closed, and with it a sealed one a failed flush
// stranded. wal.Writer.Close does not fsync, so when the active segment
// holds the only copy of acked records — its flush was skipped or failed
// — it is synced before it closes, the stranded one first: a clean
// shutdown never widens the acked-but-lost window. It returns the first
// error.
func (s *Store) Shutdown(err error, it InternalIterator, active *wal.Writer, num, lastSeq uint64) error {
	flushed := false
	if err == nil {
		if it.SeekToFirst(); it.Valid() {
			err = s.FlushLog(it, lastSeq, active, num, 0)
		}
		flushed = err == nil
	}
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if !flushed {
		keep(SyncLog(active))
	}
	keep(active.Close())
	keep(s.Close())
	return err
}

// Crash abandons an engine's live segments the way a crash would — each
// loses its unflushed staging tail — and closes the store without a
// flush or a sync, leaving the directory as recovery would find it. The
// active segment takes a live sealed one with it.
func (s *Store) Crash(active *wal.Writer) {
	active.Abandon()
	s.Close()
}
