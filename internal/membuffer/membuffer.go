// Package membuffer implements FloDB's top in-memory level: a small, fast,
// unsorted concurrent hash table built as a CLHT (cache-line hash table),
// the structure the paper uses as the Membuffer (§4.1).
//
// Structure:
//
//   - The table is an array of 64-byte buckets, each exactly one cache line:
//     a lock, BucketSlots 32-bit hash tags and BucketSlots atomic pointers to
//     immutable pairs. The array starts on a line boundary, so a probe reads
//     one line. A slot's tag is the high half of the key's keys.Hash: a probe
//     compares the tag first and reads a pair only on a tag match, so a miss
//     costs the bucket's line and nothing else. Updates lock only their
//     bucket; reads are lock-free.
//   - The bucket array is split into 2^ℓ contiguous *partitions*; the ℓ
//     most significant bits of the key select the partition and the rest
//     of the key hashes to a bucket inside it (§4.3). Keys that are close
//     numerically land in the same partition, so a drained batch is a
//     small skiplist "neighborhood" — the property that makes multi-insert
//     path reuse effective (Fig 8).
//   - There is no chaining and no resizing: when a bucket is full, Add
//     fails and the caller (FloDB's Put) writes to the Memtable instead
//     (Algorithm 2). This bounds both memory and tail latency.
//
// Draining protocol (Figure 6): a drainer takes the drain token of one
// partition, claims pairs from it, copies them to the memtable, then
// releases them and the token. A key lives in exactly one partition, so the
// token is what guarantees AT MOST ONE UNRELEASED CLAIM PER KEY: an in-place
// update replaces the slot's pair wholesale while a claimed copy of the old
// pair is in flight, and were a second drainer free to claim the new pair,
// the two copies would race into the memtable and the older could land
// last. With the token the new pair waits for the next visit, which starts
// only after the old copy is in the memtable. Release clears a slot only if
// it still holds the identical pair, so the overwritten-while-draining
// value stays in the Membuffer, above the stale copy the drainer pushed
// down, preserving freshest-level-wins. Writers never touch the token.
package membuffer

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"flodb/internal/keys"
)

// BucketSlots is a bucket's entry capacity: what fits in one cache line
// beside the lock and the tags, and CLHT's budget of 3–4 entries per
// bucket. Four keeps the failure ("bucket full") probability low at the
// occupancies FloDB targets.
const BucketSlots = 4

// pair is an immutable key/value snapshot stored in a slot: this header at
// the start of one pointer-free allocation, followed by the key, the value
// and padding to a word. A probe that compares the key reads the line the
// header is on. A pair is never written after newPair returns, so a slice
// of it may outlive its slot: a drained entry's value aliases the pair
// instead of copying it.
type pair struct {
	klen uint32 // key length; the top bit marks a tombstone
	vlen uint32
}

const (
	pairHeader = int(unsafe.Sizeof(pair{}))
	tombBit    = 1 << 31
)

// newPair copies key and value into a fresh pair. A tombstone has no value.
func newPair(key, value []byte, tombstone bool) *pair {
	if tombstone {
		value = nil
	}
	buf := make([]byte, pairSize(pairHeader+len(key)+len(value)))
	copy(buf[pairHeader:], key)
	copy(buf[pairHeader+len(key):], value)
	p := (*pair)(unsafe.Pointer(&buf[0]))
	p.klen, p.vlen = uint32(len(key)), uint32(len(value))
	if tombstone {
		p.klen |= tombBit
	}
	return p
}

// pairSize is the allocation a pair of n header, key and value bytes
// takes: n rounded up to a word, which keeps the header aligned.
func pairSize(n int) int { return (n + pairHeader - 1) &^ (pairHeader - 1) }

// bytes returns the pair's allocation up to the end of the value.
func (p *pair) bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(p)), pairHeader+int(p.keyLen())+int(p.vlen))
}

func (p *pair) keyLen() uint32  { return p.klen &^ tombBit }
func (p *pair) tombstone() bool { return p.klen&tombBit != 0 }

func (p *pair) key() []byte {
	k := pairHeader + int(p.keyLen())
	return p.bytes()[pairHeader:k:k]
}

// value returns the value bytes; nil if there are none, so an empty value
// or a tombstone holds no reference to the pair.
func (p *pair) value() []byte {
	if p.vlen == 0 {
		return nil
	}
	b := p.bytes()
	return b[len(b)-int(p.vlen):]
}

// size is the bytes the pair's allocation holds.
func (p *pair) size() int64 { return int64(pairSize(len(p.bytes()))) }

// bucket is one cache line: 8 bytes of lock, 16 of tags, 32 of slots and 8
// of padding. tags[i] is the high half of the keys.Hash of slots[i]'s key,
// meaningful only while slots[i] is not nil. Writers, under mu, store a new
// slot's tag before its pointer; lock-free readers load the pointer, then
// the tag, so a tag they match is never older than the pair they read.
type bucket struct {
	mu    sync.Mutex
	tags  [BucketSlots]atomic.Uint32
	slots [BucketSlots]atomic.Pointer[pair]
	_     [8]byte
}

// lineBytes is the cache-line size the buckets are laid out for.
const lineBytes = 64

// minAllocBuckets is a bucket count whose array, over 32 KiB, the runtime
// allocates as a large object, and large objects start on a page boundary. A
// pointer-holding object of 512 B to 32 KiB instead starts 8 bytes into its
// size-class slot, behind the runtime's malloc header, so every one of its
// 64-byte buckets would straddle two lines. A spare bucket cannot shift
// such an array onto a line boundary (every element of a 64-byte array has
// the base's alignment), and a view cut mid-bucket would hide the slot
// pointers from the garbage collector. A small buffer therefore allocates
// this many buckets and uses a prefix: at most 32 KiB per buffer.
const minAllocBuckets = 32<<10/lineBytes + 1

// newBuckets returns n zeroed buckets starting on a line boundary.
func newBuckets(n int) []bucket {
	return make([]bucket, max(n, minAllocBuckets))[:n:n]
}

// Config sizes a Buffer.
type Config struct {
	// Buckets is the total bucket count; it is rounded up to a multiple of
	// the partition count. Zero builds a buffer with no room: it refuses
	// every Put and misses every Get.
	Buckets int
	// PartitionBits is ℓ: the table has 2^ℓ partitions keyed by the most
	// significant key bits. 0 disables partitioning (one partition).
	PartitionBits uint
}

// ConfigForBytes sizes a buffer to hold roughly capacityBytes of entries
// of the given average size (key+value). A budget of zero gets no buckets;
// any other gets at least one per partition.
func ConfigForBytes(capacityBytes int64, avgEntryBytes int, partitionBits uint) Config {
	if capacityBytes == 0 {
		return Config{PartitionBits: partitionBits}
	}
	if avgEntryBytes <= 0 {
		avgEntryBytes = 64
	}
	entries := capacityBytes / int64(avgEntryBytes)
	buckets := int(entries / BucketSlots)
	if buckets < 1 {
		buckets = 1
	}
	return Config{Buckets: buckets, PartitionBits: partitionBits}
}

// partition is the drain-side state of one key range, padded to a line so
// writers in different partitions never share one.
type partition struct {
	// live counts resident (not yet drained-and-removed) entries. Per
	// partition rather than one global counter so a drainer skips empty
	// partitions and stops sweeping one as soon as it has seen every
	// resident entry: draining costs time in proportion to what is
	// resident, not to the table's capacity.
	live atomic.Int64
	// bytes is the size of the live entries' pairs.
	bytes atomic.Int64
	// owned is the drain token: set by the DrainPartition call that claims
	// from the partition, cleared by the Release or Abort of that batch.
	owned atomic.Bool
	_     [lineBytes - 17]byte
}

// Buffer is the Membuffer. Create with New.
type Buffer struct {
	buckets    []bucket
	partitions int
	perPart    int // buckets per partition
	partBits   uint

	frozen atomic.Bool
	parts  []partition

	// drainCursor hands out partitions round-robin to draining threads.
	drainCursor atomic.Uint64

	// fullFailures counts Adds rejected because the target bucket was
	// full — the benchmarks report the "direct Membuffer update" fraction
	// (Fig 17) from this.
	fullFailures atomic.Int64
}

// New builds an empty buffer from cfg.
func New(cfg Config) *Buffer {
	if cfg.PartitionBits > 16 {
		cfg.PartitionBits = 16
	}
	parts := 1 << cfg.PartitionBits
	if cfg.Buckets == 0 {
		return &Buffer{parts: make([]partition, parts), partitions: parts, partBits: cfg.PartitionBits}
	}
	if cfg.Buckets < parts {
		cfg.Buckets = parts
	}
	if rem := cfg.Buckets % parts; rem != 0 {
		cfg.Buckets += parts - rem
	}
	return &Buffer{
		buckets:    newBuckets(cfg.Buckets),
		parts:      make([]partition, parts),
		partitions: parts,
		perPart:    cfg.Buckets / parts,
		partBits:   cfg.PartitionBits,
	}
}

// locate maps a key whose keys.Hash is h to its partition and bucket
// index: partition by MSBs, hash within.
func (b *Buffer) locate(key []byte, h uint64) (part, bucket int) {
	part = int(keys.PartitionOf(key, b.partBits))
	return part, part*b.perPart + int(h%uint64(b.perPart))
}

// tagOf is the tag a slot holding the key whose keys.Hash is h carries: the
// hash's high half. The bucket index is the hash modulo the partition's
// bucket count, which for a power of two reads only low bits, so keys that
// share a bucket still spread over all tags.
func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// Add inserts key→value (or a tombstone) into the buffer, updating in place
// if the key is already present. It returns false — and the caller must
// fall through to the Memtable — if the buffer is frozen or the target
// bucket is full.
func (b *Buffer) Add(key, value []byte, tombstone bool) bool {
	ok, _ := b.Put(key, value, tombstone)
	return ok
}

// Put is Add distinguishing its two success modes: inPlace reports that
// the key was already resident and was overwritten in its slot. An
// in-place update absorbs a write with NO new drain debt (§4.4); the
// store counts them (flodb_inplace_hits_total).
func (b *Buffer) Put(key, value []byte, tombstone bool) (stored, inPlace bool) {
	return b.PutHashed(key, keys.Hash(key), value, tombstone)
}

// PutHashed is Put for a caller that already holds h, key's keys.Hash.
// It copies key and value into the buffer's own pair, so the caller may
// reuse both as soon as it returns. A buffer with no buckets refuses
// every Put, without counting it a full bucket.
func (b *Buffer) PutHashed(key []byte, h uint64, value []byte, tombstone bool) (stored, inPlace bool) {
	if b.frozen.Load() || b.perPart == 0 {
		return false, false
	}
	part, bi := b.locate(key, h)
	bk := &b.buckets[bi]
	tag := tagOf(h)
	if bk.full(key, tag) {
		b.fullFailures.Add(1)
		return false, false
	}
	np := newPair(key, value, tombstone)
	bk.mu.Lock()
	// Re-check under the lock: Freeze's caller synchronizes via RCU, but
	// the cheap double check keeps helpers honest in tests.
	if b.frozen.Load() {
		bk.mu.Unlock()
		return false, false
	}
	free := -1
	for i := range bk.slots {
		p := bk.slots[i].Load()
		if p == nil {
			if free < 0 {
				free = i
			}
			continue
		}
		if bk.tags[i].Load() == tag && keys.Equal(p.key(), key) {
			// In-place update: replace the pair. A drainer holding the old
			// one will find the slot changed and leave it be.
			bk.slots[i].Store(np)
			if d := np.size() - p.size(); d != 0 {
				b.parts[part].bytes.Add(d)
			}
			bk.mu.Unlock()
			return true, true
		}
	}
	if free < 0 {
		bk.mu.Unlock()
		b.fullFailures.Add(1)
		return false, false
	}
	bk.tags[free].Store(tag)
	bk.slots[free].Store(np)
	// Counted under the lock, so a Release of this pair cannot uncount it
	// first.
	pt := &b.parts[part]
	pt.live.Add(1)
	pt.bytes.Add(np.size())
	bk.mu.Unlock()
	return true, false
}

// full reports, without the lock, that every slot of bk holds another
// key than the one whose tag is tag: a Put of key would find no slot, so
// PutHashed refuses it before building a pair the caller would throw
// away. Each slot is loaded once, pointer before tag as GetHashed does,
// so a resident key is never missed: to miss it, the slot that held it
// must have been emptied (its copy drained below this write's sequence
// number) or refilled by a concurrent writer of the same key. PutHashed
// checks again under the lock, where a slot may have filled meanwhile.
func (bk *bucket) full(key []byte, tag uint32) bool {
	for i := range bk.slots {
		p := bk.slots[i].Load()
		if p == nil || bk.tags[i].Load() == tag && keys.Equal(p.key(), key) {
			return false
		}
	}
	return true
}

// Get returns the freshest value for key in this buffer. ok is false if the
// key is absent. Lock-free.
func (b *Buffer) Get(key []byte) (value []byte, tombstone, ok bool) {
	return b.GetHashed(key, keys.Hash(key))
}

// GetHashed is Get for a caller that already holds h, key's keys.Hash. It
// reads one bucket line, and a pair only where a slot's tag matches; a
// buffer with no buckets misses.
func (b *Buffer) GetHashed(key []byte, h uint64) (value []byte, tombstone, ok bool) {
	if b.perPart == 0 {
		return nil, false, false
	}
	_, bi := b.locate(key, h)
	bk := &b.buckets[bi]
	tag := tagOf(h)
	for i := range bk.slots {
		if p := bk.slots[i].Load(); p != nil && bk.tags[i].Load() == tag && keys.Equal(p.key(), key) {
			return p.value(), p.tombstone(), true
		}
	}
	return nil, false, false
}

// Freeze makes the buffer immutable: all subsequent Adds fail. Used when a
// scan or the core installs a fresh Membuffer and this one becomes IMM_MBF.
func (b *Buffer) Freeze() { b.frozen.Store(true) }

// Frozen reports whether Freeze was called.
func (b *Buffer) Frozen() bool { return b.frozen.Load() }

// Reset returns a frozen buffer that has been drained empty to service:
// it accepts Puts again. The caller must guarantee that no drainer still
// holds a reference to the buffer from before it was emptied — a stale
// drainer would claim the entries of the buffer's next life.
func (b *Buffer) Reset() { b.frozen.Store(false) }

// Len returns the number of live entries.
func (b *Buffer) Len() int {
	n := int64(0)
	for i := range b.parts {
		n += b.parts[i].live.Load()
	}
	return int(n)
}

// ApproxBytes returns the bytes the live entries' pairs hold: key, value
// and a few bytes of header and padding each.
func (b *Buffer) ApproxBytes() int64 {
	n := int64(0)
	for i := range b.parts {
		n += b.parts[i].bytes.Load()
	}
	return n
}

// Capacity returns the total slot count.
func (b *Buffer) Capacity() int { return len(b.buckets) * BucketSlots }

// FullFailures returns how many Adds were rejected on a full bucket.
func (b *Buffer) FullFailures() int64 { return b.fullFailures.Load() }

// Partitions returns the partition count (2^ℓ).
func (b *Buffer) Partitions() int { return b.partitions }

// NextPartition hands out partition indices round-robin across draining
// threads.
func (b *Buffer) NextPartition() int {
	return int(b.drainCursor.Add(1)-1) % b.partitions
}

// fullestWindow bounds how many partitions Fullest compares per call: all
// of them at the default 64, a window sliding over more.
const fullestWindow = 64

// Fullest returns, of up to fullestWindow partitions from partition from
// on, the one no drainer holds a claim on with the most resident entries,
// and its occupancy: resident entries over slots. When every partition in
// the window is empty or claimed, or the buffer has no buckets, it
// returns from and 0.
func (b *Buffer) Fullest(from int) (part int, occupancy float64) {
	part = from
	most := int64(0)
	for i, p := 0, from; i < min(b.partitions, fullestWindow); i, p = i+1, (p+1)%b.partitions {
		if n := b.parts[p].live.Load(); n > most && !b.parts[p].owned.Load() {
			part, most = p, n
		}
	}
	if most == 0 {
		return part, 0
	}
	return part, float64(most) / float64(b.perPart*BucketSlots)
}

// Drained is a claimed entry handed to a draining thread. The drainer must
// call Release after the entry has been safely inserted downstream.
//
// Key and Value alias the entry's pair, which is never written again, so
// whoever keeps Value keeps the whole pair alive (Held).
type Drained struct {
	Key       []byte
	Value     []byte
	Tombstone bool

	bucketIdx int
	slotIdx   int
	p         *pair
}

// Held is the bytes a holder of d.Value keeps alive: the pair's whole
// allocation, key and header included, or nothing if Value is empty.
func (d *Drained) Held() int64 {
	if len(d.Value) == 0 {
		return 0
	}
	return d.p.size()
}

// DrainPartition takes partition part's drain token and claims up to max
// of its entries; it claims nothing (and returns nil) while another batch
// from the same partition is unreleased. Claimed entries stay visible to
// readers (and to in-place updaters) until Release removes them — exactly
// the mark→insert→delete sequence of Figure 6. A max of 0 or less claims
// everything in the partition.
//
// The sweep visits no more slots than it must: an empty partition costs
// one counter load, and a sweep ends once it has passed as many resident
// entries as the partition's counter reported. An entry a concurrent Put
// adds behind the sweep is left for the next visit.
func (b *Buffer) DrainPartition(part, max int) []Drained {
	return b.DrainPartitionInto(nil, part, max)
}

// DrainPartitionInto is DrainPartition claiming into batch's storage, which
// it replaces with a larger array only when the partition's resident
// count, capped at max, does not fit: a drainer that passes its last
// released batch back in claims without allocating. It returns the claim,
// batch[:0] when there is none.
func (b *Buffer) DrainPartitionInto(batch []Drained, part, max int) []Drained {
	out := batch[:0]
	if part < 0 || part >= b.partitions {
		return out
	}
	resident := int(b.parts[part].live.Load())
	if resident <= 0 || !b.parts[part].owned.CompareAndSwap(false, true) {
		return out
	}
	if max <= 0 || max > resident {
		max = resident // the sweep ends once it has passed this many
	}
	if cap(out) < max {
		out = make([]Drained, 0, max)
	}
	start := part * b.perPart
	for bi := start; bi < start+b.perPart && len(out) < max; bi++ {
		bk := &b.buckets[bi]
		for si := range bk.slots {
			if len(out) >= max {
				break
			}
			p := bk.slots[si].Load()
			if p == nil {
				continue
			}
			out = append(out, Drained{
				Key: p.key(), Value: p.value(), Tombstone: p.tombstone(),
				bucketIdx: bi, slotIdx: si, p: p,
			})
		}
	}
	if len(out) == 0 {
		b.parts[part].owned.Store(false)
	}
	return out
}

// DrainAll claims every entry of every partition whose token is free, one
// partition at a time, and hands each non-empty claim to fn, which owns
// its Release. The claims share one array, so fn must not keep a batch
// past its return. A seal drains a frozen Membuffer with it; an empty
// buffer costs one counter load per partition.
func (b *Buffer) DrainAll(fn func(batch []Drained)) {
	var batch []Drained
	for part := 0; part < b.partitions; part++ {
		if batch = b.DrainPartitionInto(batch, part, 0); len(batch) > 0 {
			fn(batch)
		}
	}
}

// Release removes drained entries from the buffer and drops the tokens of
// their partitions. A slot is cleared only if it still holds the identical
// pair: if a writer updated the key in place after the claim, the newer
// pair stays (it will be drained later with a newer sequence number). The
// batch must be released whole, once.
func (b *Buffer) Release(drained []Drained) {
	for i := range drained {
		d := &drained[i]
		bk := &b.buckets[d.bucketIdx]
		bk.mu.Lock()
		if bk.slots[d.slotIdx].Load() == d.p {
			bk.slots[d.slotIdx].Store(nil)
			pt := &b.parts[d.bucketIdx/b.perPart]
			pt.live.Add(-1)
			pt.bytes.Add(-d.p.size())
		}
		bk.mu.Unlock()
	}
	b.disown(drained)
}

// Abort returns claimed entries to the unclaimed state without removing
// them, dropping their partitions' tokens. Drainers use it when the
// downstream insert fails (e.g. shutdown).
func (b *Buffer) Abort(drained []Drained) { b.disown(drained) }

// disown drops the token of every partition drained has entries of.
func (b *Buffer) disown(drained []Drained) {
	last := -1 // a batch holds each partition's entries together
	for i := range drained {
		if part := drained[i].bucketIdx / b.perPart; part != last {
			b.parts[part].owned.Store(false)
			last = part
		}
	}
}

// ForEach calls fn for every live entry (including drain-claimed ones).
// Iteration order is bucket order, not key order. fn must not mutate the
// buffer. Used by tests and by the flodb CLI's stats command.
func (b *Buffer) ForEach(fn func(key, value []byte, tombstone bool)) {
	for bi := range b.buckets {
		bk := &b.buckets[bi]
		for si := range bk.slots {
			if p := bk.slots[si].Load(); p != nil {
				fn(p.key(), p.value(), p.tombstone())
			}
		}
	}
}

// PartitionLen counts live entries in one partition (diagnostics).
func (b *Buffer) PartitionLen(part int) int {
	if part < 0 || part >= b.partitions {
		return 0
	}
	n := 0
	start := part * b.perPart
	for bi := start; bi < start+b.perPart; bi++ {
		bk := &b.buckets[bi]
		for si := range bk.slots {
			if bk.slots[si].Load() != nil {
				n++
			}
		}
	}
	return n
}
