package core

import "flodb/internal/storage"

// pinView takes a point-in-time view of the store, in O(resident
// Membuffer entries) and with no disk I/O. It is the engine's View: the
// open path of every range read, Scan, NewIterator and Snapshot. Opening
// costs a Membuffer seal, which pauses slow-path writers only for its
// grace period; an open view keeps the versions its bound needs chained
// beneath later overwrites until its last reference drops.
//
// Design note — how a single-versioned memory component serves
// repeatable reads. The paper's memory levels deliberately update in
// place (§3.2): the Membuffer overwrites hash slots and the Memtable
// swaps skiplist entries, so the version a reader needs is destroyed by
// the very next write of the same key. Algorithm 3 answers with
// restart-on-conflict and a writer-blocking fallback (§4.4). This store
// departs from it: pinView performs Algorithm 3's seal (lines 4–11, swap
// in an empty Membuffer, RCU-wait, drain the old one into the live
// Memtable — memory-to-memory, proportional to what the Membuffer holds),
// and its bound B is the seal point: every pre-seal write has seq <= B and
// sits, once sealMembuffer returns, in the live Memtable, the
// sealed-but-unflushed Memtable, or sstables; every later write draws
// seq > B. The bound is registered with the skiplists' Retention inside
// the seal, before writers resume, which switches updates from destructive
// swaps to version chaining (skiplist.Entry.PrevVersion) for exactly the
// versions active bounds still need — at most one retained version per
// open reader per hot key. The drain runs after writers resume, so a
// drained copy can arrive after a newer write of its key: the Memtable's
// sequence-ordered insert chains it beneath that write, where B finds it.
// Reads then resolve the live Memtable at B, fall through to the sealed
// Memtable and the pinned disk Version (filtered at seq <= B), and
// releasing the view unregisters the bound so chains collapse back to
// single versions on the next overwrite. Nothing restarts, and no writer
// is blocked past the seal's grace period. The memory component stays
// single-versioned whenever no reader is open; readers pay only for the
// keys overwritten while they live.
//
// The view holds one reference on its bound and one on its Version;
// releasing it (storage.Front, whose Release here is unregisterBound)
// drops both.
func (db *DB) pinView() storage.ReadView {
	db.drainMu.Lock()
	// The Membuffer is unsequenced, so it cannot be bounded in place: seal
	// and drain it into the live Memtable first. The bound is registered
	// before writers resume, so the first post-B overwrite of any key
	// already chains the displaced pre-B version.
	var v storage.ReadView
	old := db.sealMembuffer(nil, func(seal uint64) {
		v.Seq = seal
		db.registerBound(seal)
	})
	v.Mem[0] = old.mtb

	// Capture the sealed-but-unflushed Memtable BEFORE pinning the disk
	// version. persistCycle's flush order (flush → install version →
	// synchronize → clear immMtb) guarantees that if the load returns nil
	// the data is already in the version we pin next; if it returns the
	// memtable, the captured list plus the pinned version together cover
	// everything (the merge dedups any overlap).
	if m := db.immMtb.Load(); m != nil && m != old.mtb {
		v.Mem[1] = m
	}
	v.Ver = db.store.PinVersion()

	db.drainMu.Unlock()
	return v
}
