package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"flodb/internal/membuffer"
	"flodb/internal/skiplist"
)

// drainTask is a published full drain of an immutable Membuffer into a
// specific memtable. Writers blocked by pauseWriters help by claiming
// batches from src until it is empty — the paper's helpDrain (Algorithm 2
// line 14). Helping "ensures that the drain completes even if the scanner
// thread is slow" (§4.4). seq stamps the moved entries: the store's
// counter, or a persist seal's reserved block.
type drainTask struct {
	src *membuffer.Buffer
	dst *memtable
	seq *atomic.Uint64
}

// drainLowWater is the Membuffer occupancy below which the background
// drainers drop from full speed to a trickle (one partition batch per
// drainTrickle). Above it they trim round-robin at full speed, keeping
// enough slack that bucket-full rejections stay rare; below it every
// entry left resident is a chance for the next update to land in
// place, so eviction slows to just enough to keep an idle buffer
// converging toward the skiplist.
const (
	drainLowWater = 0.5
	drainTrickle  = time.Millisecond
)

// drainLoop is a background draining thread (§4.2): a continuously ongoing
// process keeping Membuffer occupancy low, so writes complete in the fast
// level. Each round claims up to DrainBatch entries from one partition —
// a skiplist "neighborhood" (§4.3) — and moves them with one multi-insert.
func (db *DB) drainLoop() {
	defer db.wg.Done()
	h := db.domain.Reader()
	idle := 0
	var kvs []skiplist.KV // batch scratch, reused across rounds
	for {
		select {
		case <-db.closing:
			return
		default:
		}
		if db.pauseWriters.Load() {
			// A seal is in progress: stay out of the Memtable until it has
			// drawn its sequence point (see sealMembuffer).
			time.Sleep(20 * time.Microsecond)
			continue
		}

		g := db.gen.Load()
		if g.mbf == nil {
			return
		}
		// Backpressure: when the Memtable is far over target, stop feeding
		// it — the bounded Membuffer then rejects writers into the stalled
		// slow path until the persister catches up.
		if g.mtb.approxBytes() > 2*db.memtableTarget {
			db.signalPersist()
			time.Sleep(50 * time.Microsecond)
			continue
		}
		// Low-water gate: draining exists to keep the Membuffer from
		// rejecting writers into the slow path, not to empty it — a
		// resident working set absorbing updates in place, with no drain
		// debt at all, is the buffer's whole win (§4.4). Below the mark,
		// throttle to a trickle instead of sweeping the buffer clean.
		trickle := g.mbf.Occupancy() < drainLowWater
		h.Enter()
		g = db.gen.Load()
		// The flag is read AFTER the pair, inside the read section: a seal
		// raises it before it installs the next pair, so a clear flag here
		// means g is still the pair that seal will retire, and the seal's
		// grace period waits for this batch. Without the re-check a batch
		// could move entries written after the switch below the seal's
		// sequence point while older ones stayed behind in the Membuffer.
		if db.pauseWriters.Load() {
			h.Exit()
			continue
		}
		part := g.mbf.NextPartition()
		batch := g.mbf.DrainPartition(part, db.cfg.DrainBatch)
		if len(batch) > 0 {
			db.hook(hookDrainerClaimed)
			kvs = db.insertDrained(g.mtb, batch, &db.seq, kvs)
			g.mbf.Release(batch)
			db.stats.drainBatches.Add(1)
			db.stats.drainedEntries.Add(uint64(len(batch)))
		}
		h.Exit()

		if len(batch) == 0 {
			idle++
			if idle > g.mbf.Partitions() {
				// Whole buffer looked empty: back off instead of spinning.
				time.Sleep(50 * time.Microsecond)
				idle = 0
			}
		} else {
			idle = 0
			if g.mtb.approxBytes() >= db.memtableTarget {
				db.signalPersist()
			}
		}
		if trickle {
			time.Sleep(drainTrickle)
		}
	}
}

// insertDrained moves claimed entries into dst with one multi-insert
// (Figure 6 step 2 with the Algorithm 1 batch optimization), stamping each
// with a fresh number from seq. An entry's value aliases its Membuffer
// pair, and is charged for all of it (Entry.Held). kvs is scratch for the
// batch; the emptied scratch is returned for the caller's next batch.
func (db *DB) insertDrained(dst *memtable, batch []membuffer.Drained, seq *atomic.Uint64, kvs []skiplist.KV) []skiplist.KV {
	kvs = kvs[:0]
	for i := range batch {
		d := &batch[i]
		kvs = append(kvs, skiplist.KV{
			Key: d.Key,
			Entry: &skiplist.Entry{
				Value:     d.Value,
				Seq:       seq.Add(1),
				Tombstone: d.Tombstone,
				Held:      uint32(d.Held()),
			},
		})
	}
	dst.multiInsert(kvs)
	clear(kvs) // hold no drained keys or entries until the next batch
	return kvs[:0]
}

// helpDrain claims one batch from the published full drain and applies it.
// Returns true if it did work. Every caller but the sealer itself must be
// inside an RCU read section that began before it loaded t: that is what
// lets sealMembuffer tell when no helper can still hold a retired buffer.
func (db *DB) helpDrain(t *drainTask) bool {
	// Partition claims spread helpers across the buffer.
	part := t.src.NextPartition()
	batch := t.src.DrainPartition(part, db.cfg.DrainBatch)
	if len(batch) == 0 {
		// The round-robin partition may be empty while others are not;
		// sweep everything that remains.
		batch = t.src.DrainAll()
	}
	if len(batch) == 0 {
		return false
	}
	db.insertDrained(t.dst, batch, t.seq, nil)
	t.src.Release(batch)
	db.stats.drainedEntries.Add(uint64(len(batch)))
	db.stats.drainBatches.Add(1)
	return true
}

// drainBufferInto fully drains src into dst, stamping entries from seq,
// publishing the task so stalled writers help, and returns when src is
// empty. An empty src costs one pass over its partition counters and
// allocates nothing.
func (db *DB) drainBufferInto(src *membuffer.Buffer, dst *memtable, seq *atomic.Uint64) {
	if src.Len() == 0 {
		return
	}
	t := &drainTask{src: src, dst: dst, seq: seq}
	db.fullDrain.Store(t)
	db.hook(hookDrainPublished)
	for src.Len() != 0 {
		if !db.helpDrain(t) {
			// Everything left is claimed by a helper; let it finish.
			runtime.Gosched()
		}
	}
	db.fullDrain.Store(nil)
}

// spareMembuffers is the recycling state of sealMembuffer, guarded by
// drainMu. retired is the pair whose Membuffer the latest seal drained
// empty; ready is the one retired a seal before that.
type spareMembuffers struct {
	ready, retired *generation
}

// sealMembuffer is the one generation switch every consistent read and
// every persist is built on (Algorithm 3 lines 4–11; §4.2 for the persist
// form). The caller holds drainMu. It pauses slow-path writers and the
// background drainers, installs a pair with an empty Membuffer — over next
// when the caller is sealing the Memtable too, over the same Memtable
// otherwise — waits the grace period, and drains the retired Membuffer
// into the retired pair's Memtable. On return that Memtable holds every
// update that completed before the switch.
//
// Which seals pause writers through the drain. A view seal (next == nil)
// drains into the LIVE Memtable: a slow-path write landing there
// meanwhile could be overwritten by an older copy of its key from the
// drain, so writers stay paused — they help drain instead — and on
// return they are STILL paused: nothing can draw a sequence number but
// fast-path Puts into the new Membuffer (which draw none until they are
// drained), so the caller draws its sequence point and then clears
// pauseWriters. A persist seal drains into the SEALED Memtable, which no
// writer touches; it only has to number the drained entries below every
// write that follows the switch. After the grace period (no writer or
// drainer is still inside the old pair) it reserves a block of sequence
// numbers for the drain, clears pauseWriters, and drains while writers and
// drainers run on in the new generation — the paper's never-blocking
// switch (§4.2). Get reads the draining Membuffer below the new Memtable
// for the length of that drain.
//
// With the Membuffer disabled there is nothing to swap, but the grace
// period is still owed: a writer in flight may hold a sequence number it
// has not inserted under yet.
//
// Recycling. The incoming Membuffer is a drained one from an earlier seal
// when there is one, so a seal allocates nothing in the steady state (even
// the generation struct is republished when its Memtable is still the
// active one). The invariant this relies on: NO THREAD CAN REACH A RETIRED
// BUFFER THROUGH A REFERENCE TAKEN BEFORE IT WAS DRAINED EMPTY. The only
// such references are a background drainer's loaded pair and a helper's
// drainTask, both held strictly inside RCU read sections (drainLoop,
// admit's help branch). The task is unpublished when the drain ends, so
// a section that still holds it began before this seal returned, and the
// NEXT seal's grace period outlasts it. A buffer retired by seal N
// therefore becomes ready after seal N+1's Synchronize and is installed by
// seal N+2 at the earliest — which is why two spares rotate and the first
// two seals of a store allocate. A stale helper reaching a re-activated
// buffer would move live entries into a sealed (possibly already flushed)
// Memtable and lose them; the sealer's own helpDrain calls need no read
// section because seals are serialized by drainMu.
//
// The drain's own invariant — at most one unreleased claim per key, or two
// drainers race copies of one key into the Memtable and the older can land
// last — is kept by the Membuffer: DrainPartition takes the partition's
// drain token and Release drops it, for the background drainers, helpDrain
// and its DrainAll sweep alike.
func (db *DB) sealMembuffer(next *memtable) (old *generation, err error) {
	old = db.gen.Load()
	mtb := old.mtb
	if next != nil {
		mtb = next
	}
	var g *generation
	switch r := db.spares.ready; {
	case old.mbf == nil:
		g = old.over(mtb)
	case r != nil:
		r.mbf.Reset()
		g = r.over(mtb)
	default:
		g = &generation{mbf: membuffer.New(db.mbfCfg), mtb: mtb}
	}

	db.pauseWriters.Store(true)
	// The immutable components are published BEFORE the new pair: any
	// writer that reaches the new generation's WAL segment observes the
	// sealed generation through immMtb, which is what lets a Sync-class
	// commit in the new segment extend its barrier over the sealed
	// segment's tail (commitSync's prefix rule). Readers tolerate the
	// transient double-publication (the same table reachable as both
	// active and immutable) because the Get order just checks it twice.
	if old.mbf != nil {
		db.immGen.Store(old)
	}
	if next != nil {
		db.immMtb.Store(old.mtb)
	}
	if g != old {
		db.gen.Store(g)
	}
	if old.mbf != nil {
		// Frozen only once the successor is installed, so a Put that is
		// refused for this reason finds the successor on its next lap.
		old.mbf.Freeze()
	}
	db.domain.Synchronize()
	// Spares stay paired with the ACTIVE Memtable: a spare must not be
	// what keeps a flushed Memtable reachable.
	db.spares.ready, db.spares.retired = db.spares.retired.over(mtb), nil

	seq := &db.seq
	if next != nil {
		if old.mbf != nil {
			// One number per resident entry (the buffer is frozen and every
			// claim on it released, so Len is exact) and one past them, the
			// seal's sequence point: every pre-switch update is numbered at
			// or below the block's end, every write that resumes below is
			// numbered above it.
			n := uint64(old.mbf.Len()) + 1
			seq = new(atomic.Uint64)
			seq.Store(db.seq.Add(n) - n)
		}
		db.pauseWriters.Store(false)
	}
	if next != nil && old.mtb.wal != nil {
		// Seal-time flush: push the sealed segment's staged records to the
		// OS before the successor accumulates enough to write its own. A
		// crash then never recovers later records while earlier ones are
		// still trapped in a lost staging buffer — the replay prefix has
		// no cross-segment holes.
		err = old.mtb.wal.Flush()
	}
	if old.mbf != nil {
		db.drainBufferInto(old.mbf, old.mtb, seq)
		db.immGen.Store(nil)
		db.spares.retired = old.over(mtb)
	}
	return old, err
}
