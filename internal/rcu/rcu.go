// Package rcu implements epoch-based read-copy-update grace periods.
//
// FloDB uses RCU in two places (§4.2 of the paper):
//
//   - Persisting: after the active Memtable is made immutable, the
//     persisting thread waits for all in-flight writers that may still hold
//     a reference to it; and after the immutable Memtable has been written
//     to disk, it waits again for in-flight readers before dropping it.
//   - Range reads: after a new Membuffer is installed, the reader waits
//     for writers still inserting into the old one before draining it —
//     and a drained Membuffer is recycled only after a further grace
//     period, so no drain helper can still reach it.
//
// Go's garbage collector makes the *memory reclamation* half of RCU
// unnecessary, but the *quiescence* half is load-bearing for correctness:
// Synchronize returns only once every critical section that began before
// the call has finished, which is exactly the "MemBufferRCUWait" /
// "MemTableRCUWait" primitive in Algorithm 3.
//
// The implementation is classic epoch-based reclamation: a global epoch
// counter plus a fixed array of cache-line-padded slots. A reader entering
// a critical section publishes the current epoch in a slot (chosen by a
// cheap per-goroutine hash; collisions are benign, they only cause readers
// to share a slot counter). Synchronize advances the epoch and spins until
// no slot still holds an older epoch.
package rcu

import (
	"runtime"
	"sync/atomic"
)

const (
	// slotCount is the number of reader slots. It is a power of two so the
	// slot index is a mask. 128 slots keeps contention negligible for the
	// thread counts in the paper's evaluation (up to 128 threads, Fig 10).
	slotCount = 128
	slotMask  = slotCount - 1

	// quiescent marks a slot with no active critical section. Epochs start
	// at 1 so 0 is never a valid active epoch.
	quiescent = uint64(0)
)

// cacheLinePad separates hot per-slot counters to avoid false sharing.
// x86-64 and arm64 cache lines are 64 bytes; 128 covers adjacent-line
// prefetching.
type slot struct {
	// state packs (epoch << 32) | nesting. A single word lets Enter/Exit be
	// one atomic op each even with nesting.
	state atomic.Uint64
	_     [120]byte
}

// Domain is an independent RCU domain. The zero value is NOT ready to use;
// call NewDomain.
type Domain struct {
	epoch atomic.Uint64
	slots [slotCount]slot
	// seq hands out slot indices to goroutines that did not pin one.
	seq atomic.Uint32
}

// NewDomain returns a ready-to-use RCU domain.
func NewDomain() *Domain {
	d := &Domain{}
	d.epoch.Store(1)
	return d
}

// Handle identifies a reader slot. Handles may be shared by multiple
// goroutines (operations are atomic); dedicated handles per worker thread
// simply reduce contention.
type Handle struct {
	d   *Domain
	idx uint32
}

// Reader returns a handle bound to a fresh slot (round-robin). Worker
// threads that perform many operations should obtain one handle each and
// reuse it.
func (d *Domain) Reader() *Handle {
	return &Handle{d: d, idx: d.seq.Add(1) & slotMask}
}

// Enter begins a read-side critical section. It must be paired with Exit.
// Critical sections may nest.
func (h *Handle) Enter() {
	s := &h.d.slots[h.idx]
	for {
		old := s.state.Load()
		nesting := old & 0xffffffff
		var next uint64
		if nesting == 0 {
			// First entry: publish the current epoch.
			e := h.d.epoch.Load()
			next = e<<32 | 1
		} else {
			next = old + 1
		}
		if s.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Exit ends a read-side critical section.
func (h *Handle) Exit() {
	s := &h.d.slots[h.idx]
	for {
		old := s.state.Load()
		nesting := old & 0xffffffff
		if nesting == 0 {
			panic("rcu: Exit without matching Enter")
		}
		var next uint64
		if nesting == 1 {
			next = quiescent
		} else {
			next = old - 1
		}
		if s.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Synchronize blocks until every read-side critical section that was active
// when Synchronize was called has completed. Critical sections that begin
// after the call may still be running when it returns.
func (d *Domain) Synchronize() {
	// Advance the epoch; readers entering after this see the new epoch.
	target := d.epoch.Add(1)
	for i := range d.slots {
		s := &d.slots[i]
		spins := 0
		for {
			st := s.state.Load()
			if st == quiescent {
				break
			}
			if st>>32 >= target {
				// The slot re-entered after the epoch bump; the old
				// section it might have had is finished.
				break
			}
			spins++
			if spins%64 == 0 {
				runtime.Gosched()
			}
		}
	}
}

// --- Convenience plumbing -------------------------------------------------

// Read runs fn inside a read-side critical section on a throwaway handle.
// Prefer a pinned Handle on hot paths.
func (d *Domain) Read(fn func()) {
	h := d.Reader()
	h.Enter()
	defer h.Exit()
	fn()
}
