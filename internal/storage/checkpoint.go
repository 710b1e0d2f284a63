// Checkpointing: producing an openable copy of a store directory.
//
// A checkpoint is built from three ingredients, captured in this order:
//
//  1. a pinned Version — the immutable set of sstables, hard-linked into
//     the destination (falling back to a byte copy across filesystems);
//  2. the WAL tail — every segment >= the pinned version's log number,
//     copied byte-wise. A segment being appended concurrently copies as a
//     prefix; the WAL's CRC framing makes a torn final record replay as a
//     clean end-of-log, so the copy always replays to a prefix-consistent
//     state;
//  3. a fresh manifest + CURRENT naming exactly the linked tables and the
//     captured log/sequence numbers.
//
// The one race an online checkpoint must handle: a flush completing
// mid-copy advances the log number and deletes a WAL segment whose
// contents the pinned version does not contain. Copying would then leave a
// hole in the middle of history. The copy is therefore validated by
// re-reading the log number afterwards — if it moved, the attempt is
// discarded and retried against a fresh version (which now contains the
// flushed table).
package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// checkpointRetries bounds how often an online Checkpoint retries when
// flushes keep turning the WAL over mid-copy.
const checkpointRetries = 8

// Checkpoint writes an openable copy of the live store into dst, which
// must not exist or be empty. The store stays online: tables are
// hard-linked from a pinned version and the WAL tail is copied, so the
// checkpoint holds a prefix-consistent state as of some point during the
// call. Callers that buffer WAL appends should sync them first to pull
// that point close to now.
func (s *Store) Checkpoint(dst string) error {
	if err := checkDstEmpty(dst); err != nil {
		return err
	}
	for attempt := 0; attempt < checkpointRetries; attempt++ {
		retry, err := s.tryCheckpoint(dst)
		if err != nil {
			return err
		}
		if !retry {
			return nil
		}
	}
	return fmt.Errorf("storage: checkpoint %s: WAL turnover outpaced the copy %d times", dst, checkpointRetries)
}

func (s *Store) tryCheckpoint(dst string) (retry bool, err error) {
	s.vs.mu.Lock()
	v := s.vs.current.Load()
	v.refs++
	logNum := s.vs.logNum
	lastSeq := s.vs.lastSeq
	nextFileNum := s.vs.nextFileNum
	s.vs.mu.Unlock()
	defer s.vs.releaseVersion(v)

	err = writeCheckpoint(s.dir, dst, v, logNum, lastSeq, nextFileNum)
	if os.IsNotExist(err) {
		// A WAL segment (or, theoretically, a table about to be re-pinned)
		// vanished under us: a flush won the race. Start over.
		err = nil
		retry = true
	}
	if err != nil {
		return false, err
	}
	if !retry {
		// A flush completing anywhere inside the copy may have deleted a
		// segment BEFORE we listed the directory; detect it by the log
		// number having moved.
		s.vs.mu.Lock()
		retry = s.vs.logNum != logNum
		s.vs.mu.Unlock()
	}
	if retry {
		if err := wipeDir(dst); err != nil {
			return false, err
		}
	}
	return retry, nil
}

// CloneDir writes an openable copy of the store directory src into dst
// without opening (or mutating) src. It reads src's CURRENT and manifest,
// links the named tables, copies the WAL tail, and writes a fresh
// manifest — the same audited path Store.Checkpoint uses online. src must
// be quiescent (no store has it open).
func CloneDir(src, dst string) error {
	if err := checkDstEmpty(dst); err != nil {
		return err
	}
	vs, err := readDir(src)
	if err != nil {
		return fmt.Errorf("storage: clone %s: %w", src, err)
	}
	return writeCheckpoint(src, dst, vs.current.Load(), vs.logNum, vs.lastSeq, vs.nextFileNum)
}

// writeCheckpoint materializes one checkpoint attempt: tables of v linked
// from srcDir, WAL segments >= logNum copied, manifest + CURRENT written.
func writeCheckpoint(srcDir, dst string, v *Version, logNum, lastSeq, nextFileNum uint64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return fmt.Errorf("storage: checkpoint mkdir: %w", err)
	}
	for l := 0; l < NumLevels; l++ {
		for _, f := range v.files[l] {
			if err := linkOrCopy(TableFileName(srcDir, f.Num), TableFileName(dst, f.Num)); err != nil {
				return err
			}
		}
	}
	if err := copyWALTail(srcDir, dst, logNum); err != nil {
		return err
	}
	if err := writeCheckpointManifest(dst, v, logNum, lastSeq, nextFileNum); err != nil {
		return err
	}
	// Durability: the copied bytes are fsynced by copyFile; the directory
	// entries (links, copies, manifest, CURRENT) need the directory
	// itself synced, or a crash can silently truncate the "completed"
	// backup to an empty or partial directory.
	return SyncDir(dst)
}

// copyWALTail copies every WAL segment >= logNum from srcDir to dst.
// Segments may be mid-append; each copies as a prefix.
//
// Copy order is NEWEST FIRST, and it is load-bearing. Segment N+1's file
// appears at its first write-out, once writers use it, while writers that
// loaded segment N before the switch may still append there, so this
// listing can catch segment N still receiving appends while segment N+1
// already exists. A live segment with no record yet has no file, and
// copies as nothing, like an empty one. Copying ascending would take
// an incomplete prefix of N and THEN a copy of N+1 that may include
// records appended after the switch — a hole in the middle of history.
// Descending order is the copy's half of wal's segment order: N+1, as
// N's successor, writes out every record N staged before any of its own
// reaches its file, so a record captured from N+1 proves that N's earlier
// records were in N's file when N is copied afterwards.
func copyWALTail(srcDir, dst string, logNum uint64) error {
	segs, err := liveLogs(srcDir, logNum)
	if err != nil {
		return err
	}
	for _, num := range slices.Backward(segs) {
		if err := copyFile(WALFileName(srcDir, num), WALFileName(dst, num)); err != nil {
			return err
		}
	}
	return nil
}

// writeCheckpointManifest writes a single-snapshot manifest generation and
// points CURRENT at it, making dst an openable store directory.
func writeCheckpointManifest(dst string, v *Version, logNum, lastSeq, nextFileNum uint64) error {
	// rewriteManifest allocates the manifest generation from nextFileNum,
	// which is above every inherited table and WAL number, and records the
	// advanced allocator in the snapshot — so the reopened store never
	// re-issues an inherited file number.
	vsDst := &versionSet{dir: dst, fileRefs: make(map[uint64]int), nextFileNum: nextFileNum}
	vsDst.logNum = logNum
	vsDst.lastSeq = lastSeq
	cur := *v
	cur.refs = 1
	vsDst.current.Store(&cur)
	if err := vsDst.rewriteManifest(); err != nil {
		return err
	}
	return vsDst.close()
}

func checkDstEmpty(dst string) error {
	entries, err := os.ReadDir(dst)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		return fmt.Errorf("storage: checkpoint destination %s is not empty", dst)
	}
	return nil
}

func wipeDir(dst string) error {
	entries, err := os.ReadDir(dst)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := os.RemoveAll(filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

// linkOrCopy hard-links src to dst, degrading to a byte copy when linking
// is unsupported (cross-device destinations, restricted filesystems).
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil || os.IsNotExist(err) {
		return err
	}
	return copyFile(src, dst)
}

// copyFile copies src to dst and fsyncs the copy: a checkpoint that
// reported success must survive a crash (the rest of the store syncs its
// sstables and manifest the same way).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// SyncDir fsyncs a directory's entries, making renames into it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
