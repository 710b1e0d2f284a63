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
// when a segment may go: replay at open, the prefix-ordered sync of the
// sealed segment before the active one, retirement once a flush has put
// the memtable in sstables, the tail sync at close, and the crash that
// skips all of it. The engines pass their memtables and segments in;
// nothing here depends on which engine calls it.

// CreateLog allocates a file number and creates the log segment a new
// memtable writes to.
func (s *Store) CreateLog(opts wal.Options) (uint64, *wal.Writer, error) {
	num := s.NewFileNum()
	w, err := wal.Create(WALFileName(s.dir, num), opts)
	return num, w, err
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

// SyncLogs is the barrier over an engine's live segments, passed oldest
// first (the sealed one, then the active one): it returns once every
// record appended to them before the call is durable. Nil segments are
// skipped. A segment closed underneath the caller was retired by a
// completed flush, so its records are durable through sstables.
func SyncLogs(segs ...*wal.Writer) error {
	for _, w := range segs {
		if w == nil {
			continue
		}
		if err := w.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return err
		}
	}
	return nil
}

// CommitSync is the commit point of a Sync-class write whose record sits
// at off in segment w (nil when the write was not logged): it returns
// once a disk barrier covers the record. Durability is prefix-ordered:
// the sealed segment, while it is live, is synced first, so a Sync-acked
// write never survives a crash that loses an earlier acked write.
func CommitSync(sealed, w *wal.Writer, off int64) error {
	if w == nil {
		return nil
	}
	if sealed != w {
		if err := SyncLogs(sealed); err != nil {
			return err
		}
	}
	if err := w.SyncTo(off); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// FlushLog writes a sealed memtable (it, holding records up to lastSeq) to
// L0 and retires its segment w, number num (nil without a log). The flush
// makes every record in the segment durable whether or not an fsync ever
// covered it, so the acked-vs-durable boundary advances past them before
// the segment closes and its file goes. next is the segment that takes
// writes after this one; 0 moves the manifest's log number just past num
// (without a log, to a fresh file number).
func (s *Store) FlushLog(it InternalIterator, lastSeq uint64, w *wal.Writer, num, next uint64) error {
	if next == 0 {
		next = num + 1
		if w == nil {
			next = s.NewFileNum()
		}
	}
	if _, err := s.Flush(it, next, lastSeq); err != nil {
		return err
	}
	if w == nil {
		return nil
	}
	w.MarkContentsDurable()
	err := w.Close()
	os.Remove(WALFileName(s.dir, num))
	return err
}

// Shutdown persists what an engine's memory component still holds and
// closes its logs and the store, once the engine's background work has
// stopped. Unless err, the engine's sticky flush failure, is set, the
// active memtable (it, holding records up to lastSeq) is flushed when it
// holds anything and its segment (active, number num) retired. Every
// segment still live is then closed, the sealed one first. wal.Writer.Close
// does not fsync, so a segment that holds the only copy of acked records —
// a sealed one a failed flush stranded, or the active one whose flush was
// skipped or failed — is synced before it closes: a clean shutdown never
// widens the acked-but-lost window. It returns the first error.
func (s *Store) Shutdown(err error, sealed *wal.Writer, it InternalIterator, active *wal.Writer, num, lastSeq uint64) error {
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
	keep(SyncLogs(sealed))
	if sealed != nil {
		keep(sealed.Close())
	}
	if !flushed {
		keep(SyncLogs(active))
	}
	if active != nil {
		keep(active.Close())
	}
	keep(s.Close())
	return err
}

// Crash abandons an engine's live segments the way a crash would — each
// loses its unflushed staging tail — and closes the store without a
// flush or a sync, leaving the directory as recovery would find it.
func (s *Store) Crash(sealed, active *wal.Writer) {
	for _, w := range []*wal.Writer{sealed, active} {
		if w != nil {
			w.Abandon()
		}
	}
	s.Close()
}
