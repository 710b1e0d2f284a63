package core

import (
	"context"
	"errors"
	"fmt"

	"flodb/internal/kv"
	"flodb/internal/wal"
)

// Checkpoint writes an openable copy of the store into dir (which must
// not exist or be empty) while the store stays online: immutable sstables
// are hard-linked from a pinned version, the manifest is rewritten, and
// the WAL tail is copied. Reopening the checkpoint replays that tail, so
// the copy holds a prefix-consistent state — every update in it was
// applied here before some point during the call, with no holes in WAL
// order. The active WAL segment is synced first, pulling that point as
// close to "now" as the write stream allows.
//
// With the WAL disabled the memory component is not captured: the
// checkpoint holds exactly the persisted (flushed) state.
func (db *DB) Checkpoint(ctx context.Context, dir string) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if db.store == nil {
		return fmt.Errorf("flodb: checkpoint without a disk component: %w", kv.ErrNotSupported)
	}
	if err := db.loadPersistErr(); err != nil {
		return err
	}
	db.stats.Checkpoints.Add(1)

	// persistMu excludes generation switches for the whole copy. This is
	// what makes the WAL tail a clean prefix: WAL appends are staged in
	// memory, so around a switch the sealed segment's FILE can lag its
	// logical contents while the successor segment accumulates newer
	// records — copying in that window bakes a hole into the middle of
	// history (observed as a ~buffer-sized gap by the crash-consistency
	// test). With switches excluded, exactly one segment is active: we
	// sync it, and any appends racing the copy are a same-segment suffix
	// past our prefix — never a hole. Persists (and Snapshots) queue
	// behind the checkpoint; the copy is hard-links plus a WAL tail, so
	// the pause is short.
	db.persistMu.Lock()
	defer db.persistMu.Unlock()
	if g := db.gen.Load(); g.mtb.wal != nil {
		if err := g.mtb.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return err
		}
	}
	return db.store.Checkpoint(dir)
}
