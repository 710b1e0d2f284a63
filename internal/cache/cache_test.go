package cache

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestChargeAccounting: usage tracks inserts, evictions keep the cache
// within capacity, and displaced/evicted entries run their deleter
// exactly once.
func TestChargeAccounting(t *testing.T) {
	var deleted atomic.Int64
	del := func(Key, any) { deleted.Add(1) }

	c := NewWithShards(100, 1) // one stripe: deterministic CLOCK order
	for i := uint64(0); i < 10; i++ {
		h := c.Insert(Key{ID: i}, i, 10, del)
		h.Release()
	}
	if st := c.Stats(); st.Bytes != 100 || st.Entries != 10 {
		t.Fatalf("full cache: bytes=%d entries=%d, want 100/10", st.Bytes, st.Entries)
	}

	// One more 10-charge insert evicts exactly one entry.
	c.Insert(Key{ID: 10}, nil, 10, del).Release()
	if st := c.Stats(); st.Bytes != 100 || st.Entries != 10 || st.Evictions != 1 {
		t.Fatalf("after insert: bytes=%d entries=%d evictions=%d, want 100/10/1", st.Bytes, st.Entries, st.Evictions)
	}
	if deleted.Load() != 1 {
		t.Fatalf("deleter ran %d times, want 1", deleted.Load())
	}

	// Replacing a key keeps usage exact and deletes the old value once.
	var displaced atomic.Int64
	c.Insert(Key{ID: 11}, nil, 10, func(Key, any) { displaced.Add(1) }).Release()
	c.Insert(Key{ID: 11}, nil, 30, del).Release()
	if displaced.Load() != 1 {
		t.Fatalf("displaced entry's deleter ran %d times, want 1", displaced.Load())
	}
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("over capacity after replacement: %d", st.Bytes)
	}

	c.Close()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Close left entries=%d bytes=%d", st.Entries, st.Bytes)
	}
}

// TestClockSecondChance: a hit sets an entry's reference bit, and the hand
// passes over a referenced entry once, so an insert into a full stripe
// evicts the one entry no lookup touched — whichever kind of lookup set
// the others' bits.
func TestClockSecondChance(t *testing.T) {
	c := NewWithShards(100, 1)
	for i := uint64(0); i < 10; i++ {
		c.Insert(Key{ID: i}, i, 10, nil).Release()
	}
	for i := uint64(0); i < 10; i++ {
		switch {
		case i == 6:
		case i%2 == 0:
			c.Get(Key{ID: i}).Release()
		default:
			c.Lookup(Key{ID: i})
		}
	}
	c.Insert(Key{ID: 10}, nil, 10, nil).Release()
	for i := uint64(0); i < 11; i++ {
		if got := c.Lookup(Key{ID: i}) != nil || i == 10; got != (i != 6) {
			t.Fatalf("entry %d resident=%v after the eviction; only 6 was unreferenced", i, got)
		}
	}
}

// TestLookupServesOnlyUndeletedValues: an unpinned lookup returns values
// inserted without a deleter and reports the others absent, since their
// deleter may run the moment no pin holds them.
func TestLookupServesOnlyUndeletedValues(t *testing.T) {
	c := New(1 << 20)
	c.Insert(Key{ID: 1}, "row", 1, nil).Release()
	c.Insert(Key{ID: 2}, "file", 1, func(Key, any) {}).Release()
	if v := c.Lookup(Key{ID: 1}); v != "row" {
		t.Fatalf("Lookup of a plain value = %v", v)
	}
	if v := c.Lookup(Key{ID: 2}); v != nil {
		t.Fatalf("Lookup served a value with a deleter: %v", v)
	}
	if h := c.Get(Key{ID: 2}); h == nil || h.Value() != "file" {
		t.Fatal("Get lost the value with a deleter")
	} else {
		h.Release()
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 2/1", st.Hits, st.Misses)
	}
}

// TestPinBlocksEviction: an entry with an unreleased handle must survive
// any amount of insert pressure, and its deleter must not run until the
// last pin drops — the property that keeps sstable file descriptors
// open under live iterators.
func TestPinBlocksEviction(t *testing.T) {
	var deleted atomic.Int64
	del := func(Key, any) { deleted.Add(1) }

	c := NewWithShards(10, 1)
	pinned := c.Insert(Key{ID: 1}, "keep", 10, del) // fills the cache, stays pinned

	// Pressure: each insert is itself briefly pinned, then released.
	for i := uint64(2); i < 50; i++ {
		c.Insert(Key{ID: i}, nil, 10, nil).Release()
	}
	if h := c.Get(Key{ID: 1}); h == nil {
		t.Fatal("pinned entry was evicted")
	} else {
		if h.Value().(string) != "keep" {
			t.Fatal("pinned entry's value changed")
		}
		h.Release()
	}
	if deleted.Load() != 0 {
		t.Fatal("pinned entry's deleter ran while pinned")
	}

	// Even ERASED entries outlive their pins: deletion waits for Release.
	c.Erase(Key{ID: 1})
	if deleted.Load() != 0 {
		t.Fatal("erased-but-pinned entry deleted early")
	}
	if h := c.Get(Key{ID: 1}); h != nil {
		t.Fatal("erased entry still visible")
	}
	pinned.Release()
	if deleted.Load() != 1 {
		t.Fatalf("deleter ran %d times after last release, want 1", deleted.Load())
	}
}

// TestPinnedOverCapacity documents the transient-overshoot contract:
// when every entry is pinned the stripe exceeds its budget rather than
// deleting in-use values, and returns to budget once pins drop.
func TestPinnedOverCapacity(t *testing.T) {
	c := NewWithShards(10, 1)
	var hs []*Handle
	for i := uint64(0); i < 5; i++ {
		hs = append(hs, c.Insert(Key{ID: i}, nil, 10, nil))
	}
	if st := c.Stats(); st.Bytes != 50 || st.Entries != 5 {
		t.Fatalf("pinned stripe: bytes=%d entries=%d, want 50/5", st.Bytes, st.Entries)
	}
	for _, h := range hs {
		h.Release()
	}
	// The next insert rebalances the stripe back under capacity.
	c.Insert(Key{ID: 99}, nil, 10, nil).Release()
	if st := c.Stats(); st.Bytes > 10 {
		t.Fatalf("stripe did not return to budget: %d bytes", st.Bytes)
	}
}

// TestTableGrowAndShiftBack: a stripe's table grows past its first size as
// entries arrive, every entry stays reachable across the grows, and
// erasing them all (each erasure shifting its run back) leaves every
// survivor reachable at every step.
func TestTableGrowAndShiftBack(t *testing.T) {
	c := NewWithShards(1<<30, 1)
	const n = 1000
	for i := uint64(0); i < n; i++ {
		c.Insert(Key{ID: i, Offset: i * 7}, i, 1, nil).Release()
	}
	if slots := len(c.stripes[0].tab.Load().slots); slots < n {
		t.Fatalf("%d entries in %d slots", n, slots)
	}
	for i := uint64(0); i < n; i++ {
		for j := i; j < n; j += 97 {
			if v := c.Lookup(Key{ID: j, Offset: j * 7}); v != j {
				t.Fatalf("after erasing %d entries, entry %d reads %v", i, j, v)
			}
		}
		c.Erase(Key{ID: i, Offset: i * 7})
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after erasing everything: %+v", st)
	}
}

// TestConcurrentGetInsert hammers one small cache from many goroutines;
// run under -race this is the striping/pinning torture test. Every
// value is checked against its key so a torn entry or a premature
// delete shows up as a mismatch.
func TestConcurrentGetInsert(t *testing.T) {
	c := New(256) // default stripes, tiny per-stripe budget: constant eviction
	const (
		workers = 8
		laps    = 2000
		keys    = 64
	)
	var deletes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*0x9e3779b97f4a7c15 + 1
			for i := 0; i < laps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := Key{ID: x % keys, Offset: (x >> 8) % 4}
				if h := c.Get(k); h != nil {
					if h.Value().(Key) != k {
						t.Errorf("entry %v holds value %v", k, h.Value())
					}
					h.Release()
				} else {
					h := c.Insert(k, k, int64(16+k.ID%16), func(_ Key, v any) {
						deletes.Add(1)
					})
					if h.Value().(Key) != k {
						t.Errorf("fresh insert %v reads back %v", k, h.Value())
					}
					h.Release()
				}
			}
		}(uint64(w))
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != workers*laps {
		t.Fatalf("hits %d + misses %d != %d ops", st.Hits, st.Misses, workers*laps)
	}
	c.Close()
	if got := c.Len(); got != 0 {
		t.Fatalf("%d entries after Close", got)
	}
}

// modelValue is one inserted value of TestCacheModel: which key and which
// insert of it, the pins the test holds on it, and how often its deleter
// ran.
type modelValue struct {
	key     Key
	version int
	pins    atomic.Int32
	deletes atomic.Int32
}

// TestCacheModel runs Get, unpinned Lookup, Insert, Erase and Release from
// several goroutines against a reference model. Each worker owns a set of
// keys and keeps the model of them — the version it last inserted, or
// none after an Erase — and any read of an owned key must return that
// version or miss; reads of other workers' keys must return a value of the
// key read. Pins are held across later operations so eviction, erasure and
// displacement meet pinned entries. Half the keys carry a deleter; the
// deleter must run exactly once per inserted value, never while the test
// holds a pin on it, and Lookup must never serve those values. Once every
// pin is released, one insert per stripe must bring the cache within
// capacity, and the accounting must equal the resident entries.
func TestCacheModel(t *testing.T) {
	const (
		workers  = 4
		ownKeys  = 48
		capacity = 16 * 40 * 8 // 16 stripes of ~8 average entries: constant eviction
	)
	laps := 20000
	if testing.Short() {
		laps = 4000
	}
	c := New(capacity)
	deleter := func(k Key, v any) {
		mv := v.(*modelValue)
		if mv.key != k {
			t.Errorf("deleter of %v got the value of %v", k, mv.key)
		}
		if n := mv.deletes.Add(1); n != 1 {
			t.Errorf("%v v%d deleted %d times", k, mv.version, n)
		}
		if p := mv.pins.Load(); p != 0 {
			t.Errorf("%v v%d deleted under %d pins", k, mv.version, p)
		}
	}
	keyOf := func(w, i int) Key { return Key{ID: uint64(i), Offset: uint64(w)} }
	charge := func(k Key) int64 { return int64(20 + k.ID%40) }
	withDeleter := func(k Key) bool { return k.ID%2 == 0 }

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inserted []*modelValue // every value with a deleter, for the final count
		models   [workers]map[Key]*modelValue
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := make(map[Key]*modelValue) // owned key -> current value, absent after Erase
			var held []*Handle
			version := 0
			x := uint64(w)*0x9e3779b97f4a7c15 + 7
			next := func(n int) int {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return int(x % uint64(n))
			}
			check := func(k Key, v any, owned bool) {
				if v == nil {
					return
				}
				mv := v.(*modelValue)
				if mv.key != k {
					t.Errorf("read of %v returned the value of %v", k, mv.key)
					return
				}
				if want := model[k]; owned && want != mv {
					if want == nil {
						t.Errorf("worker %d read %v v%d, which it erased", w, k, mv.version)
					} else {
						t.Errorf("worker %d read %v v%d, model says v%d", w, k, mv.version, want.version)
					}
				}
			}
			for lap := 0; lap < laps; lap++ {
				owned := next(4) != 0
				k := keyOf(w, next(ownKeys))
				if !owned {
					k = keyOf(next(workers), next(ownKeys))
				}
				switch op := next(10); {
				case op < 3:
					h := c.Get(k)
					if h == nil {
						break
					}
					mv := h.Value().(*modelValue)
					mv.pins.Add(1)
					check(k, mv, owned)
					if next(3) == 0 {
						held = append(held, h)
						break
					}
					mv.pins.Add(-1)
					h.Release()
				case op < 5:
					v := c.Lookup(k)
					if v != nil && withDeleter(k) {
						t.Errorf("Lookup served %v, which has a deleter", k)
					}
					check(k, v, owned)
				case op < 8 && owned:
					version++
					mv := &modelValue{key: k, version: version}
					var del Deleter
					if withDeleter(k) {
						del = deleter
						mu.Lock()
						inserted = append(inserted, mv)
						mu.Unlock()
					}
					mv.pins.Add(1)
					h := c.Insert(k, mv, charge(k), del)
					model[k] = mv
					if next(3) == 0 {
						held = append(held, h)
						break
					}
					mv.pins.Add(-1)
					h.Release()
				case op < 9 && owned:
					c.Erase(k)
					delete(model, k)
				default:
					if len(held) > 0 {
						i := next(len(held))
						h := held[i]
						held[i] = held[len(held)-1]
						held = held[:len(held)-1]
						h.Value().(*modelValue).pins.Add(-1)
						h.Release()
					}
				}
			}
			for _, h := range held {
				h.Value().(*modelValue).pins.Add(-1)
				h.Release()
			}
			models[w] = model
		}(w)
	}
	wg.Wait()

	// Pins have drained: one insert into each stripe evicts it back to
	// capacity.
	done := make(map[*stripe]bool)
	for i := uint64(0); len(done) < len(c.stripes); i++ {
		k := Key{ID: 1 << 40, Offset: i}
		if s := c.stripe(hash(k)); !done[s] {
			done[s] = true
			c.Insert(k, nil, 1, nil).Release()
		}
	}
	var bytes int64
	entries := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		if s.usage > s.capacity {
			t.Errorf("stripe %d holds %d of %d after pins drained", i, s.usage, s.capacity)
		}
		for j := range s.tab.Load().slots {
			if e := s.tab.Load().slots[j].Load(); e != nil {
				bytes += e.charge
				entries++
				if mv, ok := e.value.(*modelValue); ok {
					w := int(mv.key.Offset)
					if models[w][mv.key] != mv {
						t.Errorf("resident %v v%d is not the model's current value", mv.key, mv.version)
					}
				}
			}
		}
	}
	if st := c.Stats(); st.Bytes != bytes || st.Entries != entries {
		t.Errorf("stats say %d bytes in %d entries; the tables hold %d in %d", st.Bytes, st.Entries, bytes, entries)
	}

	c.Close()
	for _, mv := range inserted {
		if n := mv.deletes.Load(); n != 1 {
			t.Errorf("%v v%d: deleter ran %d times, want 1", mv.key, mv.version, n)
		}
	}
	t.Logf("%d values with deleters; %+v", len(inserted), c.Stats())
}
