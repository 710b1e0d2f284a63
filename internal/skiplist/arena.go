package skiplist

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// chunkShift sizes arena chunks: 1 MiB of offset space each.
	chunkShift = 20
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	// MaxArenaBytes is the offset space of one list: node offsets are
	// uint32. Chunk 0 is never allocated (offset 0 means "no node"), so a
	// list holds at most MaxArenaBytes-1 MiB of nodes; callers that size
	// a list by a byte target keep the target well under this.
	MaxArenaBytes = 1 << 32
	maxChunks     = MaxArenaBytes >> chunkShift
	// nodeAlign keeps every node, and so its uint32 tower links, 4-byte
	// aligned.
	nodeAlign = 4

	// Node header: entry slot, key length, height (uint32 each), followed
	// by height tower links (uint32 offsets) and the key bytes.
	hdrSlot   = 0
	hdrKeyLen = 4
	hdrHeight = 8
	hdrSize   = 12
)

// arena is a list's node storage: 1 MiB []byte chunks the GC never scans,
// addressed by uint32 offsets. Allocation is a CAS on a bump word; only a
// chunk switch takes the mutex.
//
// Publication rule: a chunk is in chunks before any offset in it is handed
// out, and a reader only learns an offset through an atomic tower link (or
// the bump word) stored after that, so plain reads of chunks are ordered
// after the write that filled the slot.
type arena struct {
	// bump is the current chunk's index (high 32 bits) and the next free
	// byte in it (low 32). It starts at (0, chunkSize) — a full chunk 0 —
	// so the first allocation takes a chunk.
	bump atomic.Uint64
	mu   sync.Mutex // guards used and chunk allocation
	// used counts the slots of chunks handed out; slot 0 stays empty.
	used uint32
	// chunks maps off>>chunkShift to the address of that MiB of offset
	// space. A key of at least half a chunk gets a chunk of its own,
	// rounded up to whole MiB, which takes one slot per MiB.
	chunks [maxChunks]unsafe.Pointer
}

func (a *arena) init() {
	a.bump.Store(chunkSize)
	a.used = 1
}

// alloc returns the offset of n fresh zeroed bytes, n rounded up to
// nodeAlign. It panics when the list's offset space is exhausted.
func (a *arena) alloc(n int) uint32 {
	n = (n + nodeAlign - 1) &^ (nodeAlign - 1)
	if n >= chunkSize/2 {
		if int64(n) > MaxArenaBytes-chunkSize {
			panic("skiplist: key too large for one list's arena")
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.newChunks(uint32((n+chunkMask)>>chunkShift)) << chunkShift
	}
	size := uint64(n)
	for {
		b := a.bump.Load()
		// pos+size never carries into the index: pos <= chunkSize and
		// size < chunkSize/2.
		if pos := b & 0xffffffff; pos+size <= chunkSize {
			if a.bump.CompareAndSwap(b, b+size) {
				return uint32(b>>32)<<chunkShift | uint32(pos)
			}
			continue
		}
		// The chunk is full. Whoever takes the mutex first replaces it;
		// the others find the bump word changed and retry in the new one.
		// An allocation never lands at pos == chunkSize: that offset
		// belongs to the next slot, which may not be published.
		a.mu.Lock()
		if a.bump.Load() == b {
			a.bump.Store(uint64(a.newChunks(1)) << 32)
		}
		a.mu.Unlock()
	}
}

// newChunks publishes k contiguous chunk slots backed by one allocation
// and returns the first slot's index. The caller holds mu.
func (a *arena) newChunks(k uint32) uint32 {
	idx := a.used
	if uint64(idx)+uint64(k) > maxChunks {
		panic("skiplist: list exceeds its 4 GiB arena")
	}
	buf := make([]byte, int(k)<<chunkShift)
	for j := uint32(0); j < k; j++ {
		a.chunks[idx+j] = unsafe.Pointer(&buf[int(j)<<chunkShift])
	}
	a.used = idx + k
	return idx
}

// at returns the address of offset off.
func (a *arena) at(off uint32) unsafe.Pointer {
	return unsafe.Add(a.chunks[off>>chunkShift], off&chunkMask)
}

// entrySlots is the chunked table of entry pointers a node's slot index
// names: the only per-key pointer the GC has to trace in the list itself.
// Segment 0 holds slots [0, 2^segShift); segment k >= 1 holds
// [2^(segShift+k-1), 2^(segShift+k)), so the table doubles as it grows and
// a small list costs one small segment.
type entrySlots struct {
	next atomic.Uint32
	mu   sync.Mutex // guards segment creation
	segs [33 - segShift]atomic.Pointer[[]atomic.Pointer[Entry]]
}

const segShift = 8

// locateSlot maps slot s to its segment and index within it.
func locateSlot(s uint32) (seg int, i uint32) {
	seg = bits.Len32(s >> segShift)
	if seg == 0 {
		return 0, s
	}
	return seg, s - 1<<(segShift+seg-1)
}

// add stores e in a fresh slot and returns the slot's index.
func (t *entrySlots) add(e *Entry) uint32 {
	s := t.next.Add(1) - 1
	seg, i := locateSlot(s)
	p := t.segs[seg].Load()
	if p == nil {
		t.mu.Lock()
		if p = t.segs[seg].Load(); p == nil {
			n := 1 << segShift
			if seg > 0 {
				n = 1 << (segShift + seg - 1)
			}
			s := make([]atomic.Pointer[Entry], n)
			p = &s
			t.segs[seg].Store(p)
		}
		t.mu.Unlock()
	}
	(*p)[i].Store(e)
	return s
}

// at returns slot s.
func (t *entrySlots) at(s uint32) *atomic.Pointer[Entry] {
	seg, i := locateSlot(s)
	return &(*t.segs[seg].Load())[i]
}
