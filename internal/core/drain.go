package core

import (
	"bytes"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"flodb/internal/membuffer"
	"flodb/internal/skiplist"
)

// drainLowWater is the partition occupancy at which a background drainer
// stops trickling. When the fullest partition is at or above the mark,
// the drainer claims all of it and moves it in one sorted multi-insert,
// at full speed. Below it each resident entry is a chance for the next
// update to land in place, so eviction slows to a trickle: at most trickleBatch entries per
// drainTrickle, from the partitions in turn, enough to keep an idle
// buffer converging toward the skiplist.
//
// The mark is per partition, not for the whole buffer, because a
// whole-partition drain empties its partition: under uniform writes the
// partitions' occupancies spread from empty to full, and a buffer half
// full on average would have its fullest partitions rejecting most of
// their writers. Skewed traffic keeps its hot keys: their updates land in
// place and fill no partition.
const (
	drainLowWater = 0.5
	drainTrickle  = time.Millisecond
	trickleBatch  = 64
)

// drainScratch is a draining thread's batch storage, reused across
// batches: the claimed entries and the multi-insert batch built from
// them. Between batches it holds no key, value or entry.
type drainScratch struct {
	claimed []membuffer.Drained
	kvs     []skiplist.KV
}

// drainLoop is a background draining thread (§4.2): a continuously ongoing
// process keeping Membuffer occupancy low, so writes complete in the fast
// level. Each round claims one partition — a skiplist "neighborhood"
// (§4.3): all of the fullest if it is at or above drainLowWater, else up
// to trickleBatch entries of the next in turn — and moves the claim with
// one multi-insert.
func (db *DB) drainLoop() {
	defer db.wg.Done()
	h := db.domain.Reader()
	idle := 0
	var s drainScratch
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
		next := g.mbf.NextPartition()
		part, occ := g.mbf.Fullest(next)
		trickle := occ < drainLowWater
		limit := 0 // the whole partition
		if trickle {
			part, limit = next, trickleBatch
		}
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
		s.claimed = g.mbf.DrainPartitionInto(s.claimed, part, limit)
		n := len(s.claimed)
		if n > 0 {
			db.hook(hookDrainerClaimed)
			db.moveDrained(g.mbf, g.mtb, &s, &db.seq)
		}
		h.Exit()

		if n == 0 {
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

// moveDrained moves the batch s.claimed holds, claimed from src, into dst
// with one multi-insert (Figure 6 step 2 with the Algorithm 1 batch
// optimization): one sorted run, the splice carried from key to key. Its
// entries are numbered from one block drawn from seq, then the batch is
// released and s emptied for the next one. An entry's value aliases its
// Membuffer pair, and is charged for all of it (Entry.Held).
//
// Each entry is an allocation of its own. One slab per batch would save
// all but one, but a slab lives until its last entry dies, and its
// displaced entries keep their pairs alive with it: on data that fits the
// Memtable, that holds dead pairs until the flush and nearly doubles the
// heap.
func (db *DB) moveDrained(src *membuffer.Buffer, dst *memtable, s *drainScratch, seq *atomic.Uint64) {
	batch := s.claimed
	n := uint64(len(batch))
	first := seq.Add(n) - n + 1
	kvs := s.kvs[:0]
	for i := range batch {
		d := &batch[i]
		kvs = append(kvs, skiplist.KV{
			Key: d.Key,
			Entry: &skiplist.Entry{
				Value:     d.Value,
				Seq:       first + uint64(i),
				Tombstone: d.Tombstone,
				Held:      uint32(d.Held()),
			},
		})
	}
	// A partition holds a key once, so an unstable sort orders the batch
	// as the stable one MultiInsert would otherwise run, at a fraction of
	// its cost.
	slices.SortFunc(kvs, func(a, b skiplist.KV) int { return bytes.Compare(a.Key, b.Key) })
	dst.multiInsert(kvs)
	src.Release(batch)
	clear(kvs) // hold no drained key, pair or entry until the next batch
	clear(batch)
	s.claimed, s.kvs = batch[:0], kvs[:0]
	db.stats.drainBatches.Add(1)
	db.stats.drainedEntries.Add(n)
}

// drainBuffer moves every entry of src into dst, one sorted multi-insert
// per partition, stamping them from seq. The caller is src's only
// drainer: src is frozen, and a grace period since has waited out every
// background drainer that could reach it.
func (db *DB) drainBuffer(src *membuffer.Buffer, dst *memtable, seq *atomic.Uint64) {
	var s drainScratch
	src.DrainAll(func(batch []membuffer.Drained) {
		s.claimed = batch
		db.moveDrained(src, dst, &s, seq)
	})
}

// sealMembuffer is the one generation switch every consistent read and
// every persist is built on (Algorithm 3 lines 4–11; §4.2). The caller
// holds drainMu. next is the Memtable a persist seal installs; a view
// seal (next == nil) keeps the live one. Both run one protocol:
//
//  1. pause slow-path writers and the background drainers (pauseWriters);
//  2. install a pair with an empty Membuffer, over next or over the same
//     Memtable, and publish the retired pair as immGen;
//  3. wait the grace period: no writer or drainer is inside the retired
//     pair any more, and every sequence number drawn so far is in a
//     Memtable;
//  4. reserve one sequence number per entry resident in the retired
//     Membuffer (frozen, every claim released: Len is exact) and one past
//     them. The block's end is the seal point: every update that completed
//     before the switch is numbered at or below it. bound, when not nil,
//     is called with it here — pinView registers its view's bound before
//     any writer can overwrite a version the view needs;
//  5. let writers and drainers resume: everything they write from now on
//     is numbered above the seal point;
//  6. drain the retired Membuffer into the retired pair's Memtable — the
//     live one for a view seal, the sealed one for a persist — numbering
//     its entries from the block, while writers run on.
//
// On return that Memtable holds every update that completed before the
// switch. Writers wait only for the grace period, the paper's
// never-blocking switch (§4.2). A view seal's drained copy can reach the
// live Memtable after a newer slow-path write of its key; the skiplist's
// sequence-ordered insert keeps the newer entry and chains the copy
// beneath it for the view's bound. While the drain runs, Get weighs the
// draining Membuffer against the Memtable by the seal point (immSeal; see
// get).
//
// Writers are paused for steps 2–5 because a writer that drew a number
// between the switch and the reservation would sort below older drained
// copies; a block reserved before the switch instead would let a
// pre-switch slow-path write draw a number above it and beat a newer
// Membuffer copy. A Membuffer with no room (DisableMembuffer) runs the
// same protocol: it holds nothing to drain, but the grace period is owed
// all the same, since a writer in flight may hold a sequence number it
// has not inserted under yet.
//
// Recycling. The incoming Membuffer is the one the previous seal drained
// (Open allocates the first), so a seal allocates nothing in the steady
// state (even the generation struct is republished when its Memtable is
// still the active one). The invariant this relies on: NO THREAD CAN WRITE
// A RETIRED BUFFER THROUGH A REFERENCE TAKEN BEFORE IT WAS DRAINED EMPTY.
// Writers and background drainers take theirs strictly inside RCU read
// sections, and the retiring seal's own grace period outlasts every
// section that could have loaded the retired pair; the sealer drains it
// alone. So a buffer is ready for the next seal as soon as its drain ends. A stale drainer
// reaching a re-activated buffer would move live entries into a sealed
// (possibly already flushed) Memtable and lose them. Point reads take no
// read section: one that loaded a retired pair reads whatever the buffer
// holds when it looks, and the seal count tells it when a later seal has
// reused the buffer (getSealed).
//
// The drain's own invariant — at most one unreleased claim per key, or two
// drainers race copies of one key into the Memtable — is kept by the
// Membuffer: DrainPartition takes the partition's drain token and Release
// drops it.
func (db *DB) sealMembuffer(next *memtable, bound func(seal uint64)) (old *generation) {
	old = db.gen.Load()
	mtb := old.mtb
	if next != nil {
		mtb = next
	}
	db.seals.Add(1) // before the spare's buffer is reset for reuse
	db.spare.mbf.Reset()
	g := db.spare.over(mtb)
	db.spare = nil

	db.pauseWriters.Store(true)
	// The immutable components are published BEFORE the new pair, so a
	// reader that finds the new pair finds the retired one too. Readers
	// tolerate the transient double-publication (the same table reachable
	// as both active and immutable) because the Get order just checks it
	// twice. The two WAL segments need nothing from the seal: the new
	// Memtable's is the sealed one's successor, which writes its records
	// out and syncs them ahead of its own (wal's segment order).
	// Until the seal point is drawn every Memtable entry predates the
	// switch, so the draining Membuffer beats all of them.
	db.immSeal.Store(math.MaxUint64)
	db.immGen.Store(old)
	if next != nil {
		db.immMtb.Store(old.mtb)
	}
	db.gen.Store(g)
	// Frozen only once the successor is installed, so a Put that is
	// refused for this reason finds the successor on its next lap.
	old.mbf.Freeze()
	db.domain.Synchronize()

	n := uint64(old.mbf.Len()) + 1
	seal := db.seq.Add(n)
	var block atomic.Uint64 // the drain's numbers: seal-n+1 .. seal-1
	block.Store(seal - n)
	db.immSeal.Store(seal)
	if bound != nil {
		bound(seal)
	}
	db.pauseWriters.Store(false)

	if old.mbf.Len() != 0 {
		db.hook(hookSealDraining)
		db.drainBuffer(old.mbf, old.mtb, &block)
	}
	db.immGen.Store(nil)
	// Spares stay paired with the ACTIVE Memtable: a spare must not be
	// what keeps a flushed Memtable reachable.
	db.spare = old.over(mtb)
	return old
}
