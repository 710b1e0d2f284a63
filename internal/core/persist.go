package core

import (
	"fmt"
	"os"
	"time"

	"flodb/internal/obs"
	"flodb/internal/storage"
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
				db.setPersistErr(err)
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
	return db.gen.Load().mtb.approxBytes() >= db.memtableTarget()
}

// persistOnce runs one seal→drain→flush cycle under persistMu, which
// serializes the persisting thread with Snapshot's forced cycles.
func (db *DB) persistOnce() error {
	db.persistMu.Lock()
	defer db.persistMu.Unlock()
	_, err := db.persistCycle()
	return err
}

// persistCycle runs one seal→drain→flush cycle. The caller must hold
// persistMu. It returns the sequence number taken after the old
// Membuffer fully drained: every update that completed before the
// generation switch has a sequence number <= the bound and is contained
// in the flushed Memtable (or older tables), and every later update gets
// a larger one — the linearization bound Snapshot pins.
//
// Switch protocol (see the package comment for why the pair is one
// pointer): under drainMu, sealMembuffer pauses slow-path writers,
// installs the new generation over a fresh Memtable, RCU-synchronizes
// ("RCU is used first to make sure that all pending updates to the
// immutable Memtable have completed", §4.2) and fully drains the old
// Membuffer into the old (sealed) Memtable with writers helping — which
// bounds WAL replay and keeps Get's freshness order intact. Then writers
// are released, the sealed Memtable is flushed to L0, the log number
// advances and the old WAL segment is deleted.
func (db *DB) persistCycle() (seqBound uint64, err error) {
	next, err := db.newMemtable()
	if err != nil {
		return 0, err
	}
	db.drainMu.Lock()
	var sealStart time.Time
	var sealBytes int64
	if db.tel != nil {
		sealStart = time.Now()
	}
	old, sealErr := db.sealMembuffer(next)
	// Taken while writers are still paused and drainers stopped: every
	// pre-switch update has a smaller sequence number and sits in old.mtb
	// or older tables; every post-switch update will draw a larger one.
	seqBound = db.seq.Add(1)
	db.pauseWriters.Store(false)
	if t := db.tel; t != nil {
		sealBytes = old.mtb.approxBytes()
		t.events.Emit(obs.Event{
			Type: obs.EventSeal, Dur: time.Since(sealStart),
			Bytes: sealBytes, Detail: "generation switch + drain",
		})
	}
	db.drainMu.Unlock()
	if sealErr != nil {
		return 0, sealErr
	}

	db.stats.persists.Add(1)

	if db.store == nil {
		// DropPersist (Fig 17): the sealed Memtable is simply discarded.
		db.immMtb.Store(nil)
		return seqBound, nil
	}

	if err := db.cfg.FlushFault.Check(); err != nil {
		return 0, err
	}
	// Model the paper's bounded persistence throughput, if configured.
	db.cfg.PersistLimiter.Acquire(old.mtb.approxBytes())

	newLog := next.walNum
	if db.cfg.DisableWAL {
		newLog = db.store.NewFileNum()
	}
	if _, err := db.store.Flush(newMemtableIter(old.mtb), newLog, db.seq.Load()); err != nil {
		return 0, err
	}
	// The old Memtable's data is in tables; RCU ensures in-flight readers
	// finish before the component is dropped (§4.2's second use of RCU —
	// with Go's GC the drop is a pointer store, the grace period is what
	// keeps the Get order sensible).
	db.domain.Synchronize()
	db.immMtb.Store(nil)
	if old.mtb.wal != nil {
		// The generation's contents just reached sstables: every record
		// in its segment is durable through the flush, whether or not an
		// fsync ever covered it. Advance the acked-vs-durable boundary
		// before retiring the segment.
		old.mtb.wal.MarkContentsDurable()
	}
	if err := old.mtb.closeWAL(); err != nil {
		return 0, err
	}
	if !db.cfg.DisableWAL {
		os.Remove(storage.WALFileName(db.cfg.Dir, old.mtb.walNum))
		if t := db.tel; t != nil {
			t.events.Emit(obs.Event{
				Type: obs.EventWALRotate, Bytes: sealBytes,
				Detail: fmt.Sprintf("segment %d -> %d", old.mtb.walNum, next.walNum),
			})
		}
	}
	return seqBound, nil
}
