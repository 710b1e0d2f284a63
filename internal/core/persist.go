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
		// A closing store starts no persist: Close drains the Membuffer
		// into the live Memtable and flushes it itself. (The select above
		// picks at random when both channels are ready.)
		for db.needsPersist() && !db.isClosing() {
			if err := db.persistOnce(); err != nil {
				db.SetBackgroundErr(err)
				return
			}
		}
	}
}

func (db *DB) isClosing() bool {
	select {
	case <-db.closing:
		return true
	default:
		return false
	}
}

func (db *DB) needsPersist() bool {
	return db.gen.Load().mtb.approxBytes() >= db.memtableTarget
}

// persistOnce runs one seal→drain→flush cycle under persistMu, which
// serializes the persisting thread with the cycles tests force.
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
// number advances and the old WAL segment is deleted. Under DropPersist
// the sealed Memtable is discarded instead, and its segment with it.
func (db *DB) persistCycle() error {
	next := db.newMemtable(db.store.NextLog(db.gen.Load().mtb.wal))
	db.drainMu.Lock()
	sealStart := time.Now()
	old := db.sealMembuffer(next, nil)
	sealBytes := old.mtb.approxBytes()
	db.Events().Emit(obs.Event{
		Type: obs.EventSeal, Dur: time.Since(sealStart),
		Bytes: sealBytes, Detail: "generation switch + drain",
	})
	db.drainMu.Unlock()

	db.stats.persists.Add(1)

	if err := db.hook(hookPersisting); err != nil {
		return err
	}

	// The flush retires the old generation's segment: its records are
	// durable through the new table. A Sync-class commit or a Sync barrier
	// that reaches it, as its successor's predecessor or as the segment
	// of a record, finds it closed, which counts as durable. DropPersist
	// retires it with the records unflushed: the mode measures the memory
	// component, and keeps nothing a persist would have written.
	var err error
	if db.cfg.DropPersist {
		err = db.store.DropLog(old.mtb.wal, old.mtb.walNum)
	} else {
		err = db.store.FlushLog(old.mtb.NewIterator(), db.seq.Load(), old.mtb.wal, old.mtb.walNum, next.walNum)
	}
	if err != nil {
		return err
	}
	// The old Memtable's data is in tables; RCU ensures in-flight readers
	// finish before the component is dropped (§4.2's second use of RCU —
	// with Go's GC the drop is a pointer store, the grace period is what
	// keeps the Get order sensible).
	db.domain.Synchronize()
	db.immMtb.Store(nil)
	db.Events().Emit(obs.Event{
		Type: obs.EventWALRotate, Bytes: sealBytes,
		Detail: fmt.Sprintf("segment %d -> %d", old.mtb.walNum, next.walNum),
	})
	return nil
}
