package core

import (
	"fmt"
	"time"

	"flodb/internal/obs"
)

// persistLoop is the dedicated persisting thread (§4.2): when the Memtable
// is full it installs a fresh generation, fully drains the sealed
// Membuffer into the sealed Memtable, and writes the sorted result to L0
// — "little more than a direct copy of the component to disk" (§2.3).
func (db *DB) persistLoop() {
	defer db.wg.Done()
	for {
		select {
		case <-db.closing:
			return
		case <-db.persistCh:
		}
		for db.needsPersist() {
			if err := db.persistOnce(); err != nil {
				db.SetBackgroundErr(err)
				return
			}
			select {
			case <-db.closing:
				return
			default:
			}
		}
	}
}

func (db *DB) needsPersist() bool {
	return db.gen.Load().mtb.approxBytes() >= db.memtableTarget
}

// persistOnce runs one seal→drain→flush cycle under persistMu, which
// serializes the persisting thread with Snapshot's forced cycles.
func (db *DB) persistOnce() error {
	db.persistMu.Lock()
	defer db.persistMu.Unlock()
	return db.persistCycle()
}

// persistCycle runs one seal→drain→flush cycle. The caller must hold
// persistMu.
//
// Switch protocol (see the package comment for why the pair is one
// pointer): under drainMu, sealMembuffer pauses slow-path writers,
// installs the new generation over a fresh Memtable, RCU-synchronizes
// ("RCU is used first to make sure that all pending updates to the
// immutable Memtable have completed", §4.2), reserves the drain's block of
// sequence numbers and releases the writers — they run on in the new
// generation — then fully drains the old Membuffer into the old (sealed)
// Memtable, which bounds WAL replay. Every update that completed before
// the switch is then in the sealed Memtable (or older tables) numbered
// below every later update. The sealed Memtable is flushed to L0, the log
// number advances and the old WAL segment is deleted.
func (db *DB) persistCycle() error {
	next, err := db.newMemtable()
	if err != nil {
		return err
	}
	db.drainMu.Lock()
	sealStart := time.Now()
	old, sealErr := db.sealMembuffer(next, nil)
	sealBytes := old.mtb.approxBytes()
	db.Events().Emit(obs.Event{
		Type: obs.EventSeal, Dur: time.Since(sealStart),
		Bytes: sealBytes, Detail: "generation switch + drain",
	})
	db.drainMu.Unlock()
	if sealErr != nil {
		return sealErr
	}

	db.stats.persists.Add(1)

	if db.store == nil {
		// DropPersist (Fig 17): the sealed Memtable is simply discarded.
		db.immMtb.Store(nil)
		return nil
	}

	if err := db.cfg.FlushFault.Check(); err != nil {
		return err
	}
	db.hook(hookPersisting)

	// The flush retires the old generation's segment: its records are
	// durable through the new table. A Sync-class commit or a Sync barrier
	// that still loads immMtb finds the segment closed, which counts as
	// durable.
	if err := db.store.FlushLog(old.mtb.NewIterator(), db.seq.Load(), old.mtb.wal, old.mtb.walNum, next.walNum); err != nil {
		return err
	}
	// The old Memtable's data is in tables; RCU ensures in-flight readers
	// finish before the component is dropped (§4.2's second use of RCU —
	// with Go's GC the drop is a pointer store, the grace period is what
	// keeps the Get order sensible).
	db.domain.Synchronize()
	db.immMtb.Store(nil)
	if old.mtb.wal != nil {
		db.Events().Emit(obs.Event{
			Type: obs.EventWALRotate, Bytes: sealBytes,
			Detail: fmt.Sprintf("segment %d -> %d", old.mtb.walNum, next.walNum),
		})
	}
	return nil
}
