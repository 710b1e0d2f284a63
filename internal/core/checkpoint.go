package core

import "flodb/internal/storage"

// checkpoint is the engine's half of the Front's Checkpoint. Reopening
// the copy replays its WAL tail, so it holds a prefix-consistent state —
// every update in it was applied here before some point during the call,
// with no holes in WAL order. The active WAL segment is synced first,
// pulling that point as close to "now" as the write stream allows.
//
// A None-class write has no record, so the copy holds it only once a
// flush has put it in a table.
func (db *DB) checkpoint(dir string) error {
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
	if err := storage.SyncLogs(db.gen.Load().mtb.wal); err != nil {
		return err
	}
	return db.store.Checkpoint(dir)
}
