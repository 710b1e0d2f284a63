package membuffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"flodb/internal/keys"
)

func newSmall() *Buffer {
	return New(Config{Buckets: 64, PartitionBits: 2})
}

func TestAddGet(t *testing.T) {
	b := newSmall()
	if !b.Add([]byte("k"), []byte("v"), false) {
		t.Fatal("Add failed on empty buffer")
	}
	v, tomb, ok := b.Get([]byte("k"))
	if !ok || tomb || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, tomb, ok)
	}
	if _, _, ok := b.Get([]byte("missing")); ok {
		t.Fatal("missing key should miss")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestInPlaceUpdate(t *testing.T) {
	b := newSmall()
	b.Add([]byte("k"), []byte("v1"), false)
	b.Add([]byte("k"), []byte("v2longer"), false)
	v, _, ok := b.Get([]byte("k"))
	if !ok || string(v) != "v2longer" {
		t.Fatalf("Get after update = %q, %v", v, ok)
	}
	if b.Len() != 1 {
		t.Fatalf("in-place update must not grow Len, got %d", b.Len())
	}
}

func TestTombstone(t *testing.T) {
	b := newSmall()
	b.Add([]byte("k"), nil, true)
	_, tomb, ok := b.Get([]byte("k"))
	if !ok || !tomb {
		t.Fatal("tombstone should be stored and flagged")
	}
}

func TestBucketFullRejects(t *testing.T) {
	// One bucket of BucketSlots slots: the next distinct key is rejected.
	b := New(Config{Buckets: 1, PartitionBits: 0})
	for i := 0; i < BucketSlots; i++ {
		if !b.Add([]byte{byte('a' + i)}, []byte("1"), false) {
			t.Fatalf("add %d of %d should succeed", i+1, BucketSlots)
		}
	}
	if b.Add([]byte("z"), []byte("3"), false) {
		t.Fatal("a distinct key past the slot count should be rejected (bucket full)")
	}
	if b.FullFailures() != 1 {
		t.Fatalf("FullFailures = %d", b.FullFailures())
	}
	// Updating an existing key still works when full.
	if !b.Add([]byte("a"), []byte("1'"), false) {
		t.Fatal("in-place update should succeed even when bucket is full")
	}
	if v, _, ok := b.Get([]byte("a")); !ok || string(v) != "1'" {
		t.Fatalf("Get after in-place update = %q, %v", v, ok)
	}
}

func TestFreeze(t *testing.T) {
	b := newSmall()
	b.Add([]byte("k"), []byte("v"), false)
	b.Freeze()
	if !b.Frozen() {
		t.Fatal("Frozen should report true")
	}
	if b.Add([]byte("k2"), []byte("v2"), false) {
		t.Fatal("Add after Freeze should fail")
	}
	// Reads still work on a frozen buffer (it is IMM_MBF in Algorithm 2).
	if _, _, ok := b.Get([]byte("k")); !ok {
		t.Fatal("reads must work on frozen buffer")
	}
}

func TestPartitioningIsMSBBased(t *testing.T) {
	b := New(Config{Buckets: 256, PartitionBits: 4})
	if b.Partitions() != 16 {
		t.Fatalf("Partitions = %d", b.Partitions())
	}
	// Keys sharing high bits land in the same partition.
	k1 := keys.EncodeUint64(0x1234_0000_0000_0000)
	k2 := keys.EncodeUint64(0x1fff_ffff_0000_0000)
	k3 := keys.EncodeUint64(0xf000_0000_0000_0000)
	p1, _ := b.locate(k1, keys.Hash(k1))
	p2, _ := b.locate(k2, keys.Hash(k2))
	p3, _ := b.locate(k3, keys.Hash(k3))
	if p1 != p2 {
		t.Errorf("keys with same top nibble split: %d vs %d", p1, p2)
	}
	if p1 == p3 {
		t.Errorf("keys with different top nibble collided: %d", p1)
	}
	b.Add(k1, []byte("v"), false)
	if got := b.PartitionLen(p1); got != 1 {
		t.Errorf("PartitionLen(%d) = %d", p1, got)
	}
}

func TestBucketsRoundedToPartitions(t *testing.T) {
	b := New(Config{Buckets: 5, PartitionBits: 2})
	if len(b.buckets)%4 != 0 {
		t.Fatalf("buckets (%d) not a multiple of partitions", len(b.buckets))
	}
}

func TestConfigForBytes(t *testing.T) {
	c := ConfigForBytes(1<<20, 264, 4)
	if c.Buckets <= 0 {
		t.Fatal("ConfigForBytes produced no buckets")
	}
	b := New(c)
	// Capacity should be in the right ballpark: 1MiB / 264B ≈ 3970 entries.
	if b.Capacity() < 2000 || b.Capacity() > 8000 {
		t.Fatalf("capacity %d out of expected range", b.Capacity())
	}
	if got := ConfigForBytes(100, 0, 0); got.Buckets < 1 {
		t.Fatal("degenerate config must still have a bucket")
	}
	if got := ConfigForBytes(1, 264, 6); got.Buckets < 1 || New(got).Capacity() < 64*BucketSlots {
		t.Fatalf("a positive budget must get a bucket per partition: %+v", got)
	}
}

// TestNoRoom: a buffer sized for zero bytes has no buckets. It refuses
// every Put (not as a full bucket), misses every Get, holds nothing and
// gives a drainer nothing to claim, frozen or not.
func TestNoRoom(t *testing.T) {
	c := ConfigForBytes(0, 264, 6)
	if c.Buckets != 0 {
		t.Fatalf("ConfigForBytes(0) = %+v, want no buckets", c)
	}
	b := New(c)
	if b.Capacity() != 0 || b.Partitions() != 64 {
		t.Fatalf("capacity %d, %d partitions", b.Capacity(), b.Partitions())
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			k := keys.EncodeUint64(uint64(i) << 56)
			if ok, inPlace := b.Put(k, []byte("v"), i%2 == 0); ok || inPlace {
				t.Fatalf("Put(%d) = %v, %v, want refused", i, ok, inPlace)
			}
			if _, _, ok := b.Get(k); ok {
				t.Fatalf("Get(%d) hit", i)
			}
		}
		if b.Len() != 0 || b.ApproxBytes() != 0 || b.FullFailures() != 0 {
			t.Fatalf("Len %d, %d bytes, %d full failures", b.Len(), b.ApproxBytes(), b.FullFailures())
		}
		b.DrainAll(func(batch []Drained) { t.Fatalf("DrainAll claimed %d entries", len(batch)) })
		for p := 0; p < b.Partitions(); p++ {
			if got := b.DrainPartition(p, 0); len(got) != 0 {
				t.Fatalf("partition %d: claimed %d entries", p, len(got))
			}
		}
		if part, occ := b.Fullest(b.NextPartition()); occ != 0 || part < 0 || part >= b.Partitions() {
			t.Fatalf("Fullest = %d, %v, want occupancy 0", part, occ)
		}
		b.Freeze() // a seal's life cycle leaves it as it was
		b.Reset()
	}
}

func TestDrainReleaseCycle(t *testing.T) {
	b := New(Config{Buckets: 16, PartitionBits: 1})
	for i := 0; i < 20; i++ {
		b.Add(keys.EncodeUint64(uint64(i)<<59), []byte("v"), false) // spread partitions
	}
	total := 0
	for p := 0; p < b.Partitions(); p++ {
		d := b.DrainPartition(p, 0)
		total += len(d)
		// Claimed entries are still readable before Release.
		for _, e := range d {
			if _, _, ok := b.Get(e.Key); !ok {
				t.Fatal("claimed entry should remain visible")
			}
		}
		b.Release(d)
		for _, e := range d {
			if _, _, ok := b.Get(e.Key); ok {
				t.Fatal("released entry should be gone")
			}
		}
	}
	if total != 20 {
		t.Fatalf("drained %d entries, want 20", total)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after full drain = %d", b.Len())
	}
}

func TestDrainClaimsAreExclusive(t *testing.T) {
	b := New(Config{Buckets: 4, PartitionBits: 0})
	for i := 0; i < 10; i++ {
		b.Add(keys.EncodeUint64(uint64(i)), []byte("v"), false)
	}
	d1 := b.DrainPartition(0, 0)
	d2 := b.DrainPartition(0, 0)
	if len(d1) != 10 || len(d2) != 0 {
		t.Fatalf("claims not exclusive: %d + %d", len(d1), len(d2))
	}
	b.Abort(d1)
	d3 := b.DrainPartition(0, 0)
	if len(d3) != 10 {
		t.Fatalf("Abort should unclaim: redrained %d", len(d3))
	}
}

func TestDrainMaxRespected(t *testing.T) {
	b := New(Config{Buckets: 4, PartitionBits: 0})
	for i := 0; i < 12; i++ {
		b.Add(keys.EncodeUint64(uint64(i)), []byte("v"), false)
	}
	d := b.DrainPartition(0, 5)
	if len(d) != 5 {
		t.Fatalf("DrainPartition(max=5) returned %d", len(d))
	}
	b.Abort(d)
}

func TestUpdateDuringDrainIsNotLost(t *testing.T) {
	// The scenario from the package comment: claim, then in-place update,
	// then release. The NEW value must survive in the buffer.
	b := New(Config{Buckets: 1, PartitionBits: 0})
	b.Add([]byte("k"), []byte("old"), false)
	d := b.DrainPartition(0, 0)
	if len(d) != 1 || string(d[0].Value) != "old" {
		t.Fatalf("claimed %v", d)
	}
	if !b.Add([]byte("k"), []byte("new"), false) {
		t.Fatal("in-place update during drain should succeed")
	}
	b.Release(d)
	v, _, ok := b.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("new value lost: %q, %v", v, ok)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	// The replacement pair is unclaimed, so a later drain picks it up.
	d2 := b.DrainPartition(0, 0)
	if len(d2) != 1 || string(d2[0].Value) != "new" {
		t.Fatalf("redrain got %v", d2)
	}
	b.Release(d2)
	if b.Len() != 0 {
		t.Fatal("buffer should be empty after final release")
	}
}

// drainAll collects DrainAll's claims into one batch.
func drainAll(b *Buffer) []Drained {
	var out []Drained
	b.DrainAll(func(batch []Drained) { out = append(out, batch...) })
	return out
}

func TestDrainAll(t *testing.T) {
	b := New(Config{Buckets: 64, PartitionBits: 3})
	n := 0
	for i := 0; i < 200; i++ {
		if b.Add(keys.EncodeUint64(rand.Uint64()), []byte("v"), false) {
			n++
		}
	}
	d := drainAll(b)
	if len(d) != n {
		t.Fatalf("DrainAll claimed %d, want %d", len(d), n)
	}
	b.Release(d)
	if b.Len() != 0 {
		t.Fatal("buffer should be empty")
	}
}

func TestNextPartitionRoundRobin(t *testing.T) {
	b := New(Config{Buckets: 8, PartitionBits: 2})
	seen := make(map[int]int)
	for i := 0; i < 8; i++ {
		seen[b.NextPartition()]++
	}
	for p := 0; p < 4; p++ {
		if seen[p] != 2 {
			t.Fatalf("partition %d visited %d times, want 2", p, seen[p])
		}
	}
}

// TestFullestSkipsClaimedPartitions: Fullest names the partition with the
// most resident entries and its occupancy wherever its window starts,
// passes over one a drainer has claimed, and returns its start and 0 when
// nothing is left to claim.
func TestFullestSkipsClaimedPartitions(t *testing.T) {
	b := New(Config{Buckets: 64, PartitionBits: 2}) // 16 buckets, 64 slots a partition
	for part, n := range []int{3, 9, 5, 0} {
		for i := 0; i < n; i++ {
			k := keys.EncodeUint64(uint64(part)<<62 | uint64(i)*0x9e3779b97f4a7c15>>2)
			if !b.Add(k, []byte("v"), false) {
				t.Fatalf("partition %d: Add %d refused", part, i)
			}
		}
	}
	for from := range 4 {
		if part, occ := b.Fullest(from); part != 1 || occ != 9.0/64 {
			t.Fatalf("Fullest(%d) = %d, %.3f; want 1, %.3f", from, part, occ, 9.0/64)
		}
	}
	d := b.DrainPartition(1, 0)
	if part, occ := b.Fullest(3); part != 2 || occ != 5.0/64 {
		t.Fatalf("with partition 1 claimed, Fullest = %d, %.3f; want 2, %.3f", part, occ, 5.0/64)
	}
	b.Release(d)
	for _, p := range []int{0, 2} {
		b.Release(b.DrainPartition(p, 0))
	}
	if part, occ := b.Fullest(3); part != 3 || occ != 0 {
		t.Fatalf("empty buffer: Fullest(3) = %d, %.3f; want 3, 0", part, occ)
	}
}

func TestForEachSeesEverything(t *testing.T) {
	b := newSmall()
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i)
		if b.Add([]byte(k), []byte(v), false) {
			want[k] = v
		}
	}
	got := map[string]string{}
	b.ForEach(func(k, v []byte, tomb bool) { got[string(k)] = string(v) })
	if len(got) != len(want) {
		t.Fatalf("ForEach saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ForEach[%q] = %q, want %q", k, got[k], v)
		}
	}
}

func TestPropertyGetAfterAdd(t *testing.T) {
	b := New(Config{Buckets: 4096, PartitionBits: 4})
	err := quick.Check(func(k uint64, v []byte) bool {
		key := keys.EncodeUint64(k)
		if !b.Add(key, v, false) {
			return true // bucket full is a legal outcome
		}
		got, tomb, ok := b.Get(key)
		return ok && !tomb && bytes.Equal(got, v)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestConcurrentAddGetDrain(t *testing.T) {
	b := New(Config{Buckets: 1 << 12, PartitionBits: 4})
	stop := make(chan struct{})
	var writers, background sync.WaitGroup

	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20000; i++ {
				k := keys.EncodeUint64(rng.Uint64() % 4096)
				b.Add(k, keys.EncodeUint64(uint64(i)), false)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		background.Add(1)
		go func(r int) {
			defer background.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
					b.Get(keys.EncodeUint64(rng.Uint64() % 4096))
				}
			}
		}(r)
	}
	background.Add(1)
	go func() { // drainer
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d := b.DrainPartition(b.NextPartition(), 64)
				b.Release(d)
			}
		}
	}()

	writers.Wait()
	close(stop)
	background.Wait()

	// Drain what remains and check accounting closes to zero.
	rest := drainAll(b)
	b.Release(rest)
	if b.Len() != 0 {
		t.Fatalf("Len = %d after full drain", b.Len())
	}
	if b.ApproxBytes() != 0 {
		t.Fatalf("ApproxBytes = %d after full drain", b.ApproxBytes())
	}
}

func BenchmarkAdd(b *testing.B) {
	buf := New(Config{Buckets: 1 << 16, PartitionBits: 6})
	val := bytes.Repeat([]byte("x"), 256)
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			buf.Add(keys.EncodeUint64(rng.Uint64()), val, false)
		}
	})
}

func BenchmarkGetHit(b *testing.B) {
	buf := New(Config{Buckets: 1 << 14, PartitionBits: 6})
	const n = 1 << 14
	for i := 0; i < n; i++ {
		buf.Add(keys.EncodeUint64(uint64(i)), []byte("v"), false)
	}
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			buf.Get(keys.EncodeUint64(rng.Uint64() % n))
		}
	})
}

// TestNewAllocatesConstant pins the flat bucket layout: building a buffer
// costs the same handful of allocations at any size, because every seal
// that cannot recycle a buffer (Open, the first seals) pays it.
func TestNewAllocatesConstant(t *testing.T) {
	for _, buckets := range []int{64, 8000, 1 << 16} {
		cfg := Config{Buckets: buckets, PartitionBits: 6}
		var sink *Buffer
		if n := testing.AllocsPerRun(10, func() { sink = New(cfg) }); n > 4 {
			t.Errorf("New(%d buckets) = %.0f allocations, want <= 4", buckets, n)
		}
		if sink.Capacity() != buckets*4 {
			t.Fatalf("capacity %d, want %d", sink.Capacity(), buckets*4)
		}
	}
}

// TestBucketsDoNotOverlap fills four buckets past capacity: each holds at
// most BucketSlots entries, every entry sits in the bucket its key maps to,
// and ForEach sees exactly what was stored.
func TestBucketsDoNotOverlap(t *testing.T) {
	b := New(Config{Buckets: 4})
	stored := 0
	for i := 0; i < 64; i++ {
		if b.Add(keys.EncodeUint64(uint64(i)), []byte("v"), false) {
			stored++
		}
	}
	if stored != b.Len() || stored > b.Capacity() || b.Capacity() != 4*BucketSlots {
		t.Fatalf("stored %d, Len %d, capacity %d", stored, b.Len(), b.Capacity())
	}
	for bi := range b.buckets {
		for si := range b.buckets[bi].slots {
			p := b.buckets[bi].slots[si].Load()
			if p == nil {
				continue
			}
			h := keys.Hash(p.key())
			if _, want := b.locate(p.key(), h); want != bi {
				t.Fatalf("key %x in bucket %d, maps to %d", p.key(), bi, want)
			}
			if got := b.buckets[bi].tags[si].Load(); got != tagOf(h) {
				t.Fatalf("key %x: slot tag %#x, want %#x", p.key(), got, tagOf(h))
			}
		}
	}
	seen := 0
	b.ForEach(func(_, _ []byte, _ bool) { seen++ })
	if seen != stored {
		t.Fatalf("ForEach saw %d entries, %d were stored", seen, stored)
	}
}

// TestBucketIsOneAlignedLine pins the CLHT layout: a bucket is one 64-byte
// line and the array starts on a line boundary, so a probe reads exactly
// one line. A plain make misaligns every array of 512 B to 32 KiB (9 to
// 511 buckets) by the runtime's 8-byte malloc header. Every count up to
// 1100 is checked; beyond, arrays are large objects whose alignment does
// not depend on the count, so a stride through 2^15 suffices (checking
// each of them would allocate 34 GB).
func TestBucketIsOneAlignedLine(t *testing.T) {
	if s := unsafe.Sizeof(bucket{}); s != lineBytes {
		t.Fatalf("bucket is %d bytes, want %d", s, lineBytes)
	}
	check := func(n int) {
		b := New(Config{Buckets: n})
		if len(b.buckets) != n {
			t.Fatalf("%d buckets requested, %d built", n, len(b.buckets))
		}
		if off := uintptr(unsafe.Pointer(&b.buckets[0])) % lineBytes; off != 0 {
			t.Fatalf("%d buckets: array starts %d bytes into a line", n, off)
		}
	}
	for n := 1; n <= 1100; n++ {
		check(n)
	}
	for n := 1101; n < 1<<15; n += 97 {
		check(n)
	}
	check(1 << 15)
}

// TestTagCollisionsKeepFullCompare stores two keys that share a bucket and
// a 32-bit tag (found by search): a matching tag only admits the key
// compare, so each key is stored, found, updated in place and drained as
// its own entry.
func TestTagCollisionsKeepFullCompare(t *testing.T) {
	var a, c []byte
	seen := make(map[uint32]uint64)
	for i := uint64(0); a == nil; i++ {
		tag := tagOf(keys.Hash(keys.EncodeUint64(i)))
		if j, ok := seen[tag]; ok {
			a, c = keys.EncodeUint64(j), keys.EncodeUint64(i)
		}
		seen[tag] = i
	}
	b := New(Config{Buckets: 1}) // one bucket: every key shares it
	if !b.Add(a, []byte("A"), false) || !b.Add(c, []byte("C"), false) {
		t.Fatal("adds failed")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2: the second key overwrote the first", b.Len())
	}
	for _, kv := range [][2]string{{string(a), "A"}, {string(c), "C"}} {
		if v, _, ok := b.Get([]byte(kv[0])); !ok || string(v) != kv[1] {
			t.Fatalf("Get(%x) = %q, %v, want %q", kv[0], v, ok, kv[1])
		}
	}
	if ok, inPlace := b.Put(a, []byte("A2"), false); !ok || !inPlace {
		t.Fatalf("update of a = %v, %v, want an in-place update", ok, inPlace)
	}
	if v, _, _ := b.Get(c); string(v) != "C" {
		t.Fatalf("updating a changed c to %q", v)
	}
	if v, _, _ := b.Get(a); string(v) != "A2" {
		t.Fatalf("a = %q after its update", v)
	}
	d := b.DrainPartition(0, 0)
	got := map[string]string{}
	for _, e := range d {
		got[string(e.Key)] = string(e.Value)
	}
	if len(d) != 2 || got[string(a)] != "A2" || got[string(c)] != "C" {
		t.Fatalf("drained %v", got)
	}
	b.Release(d)
	if b.Len() != 0 || b.ApproxBytes() != 0 {
		t.Fatalf("Len %d bytes %d after release", b.Len(), b.ApproxBytes())
	}
}

// TestDrainSkipsEmptyAndStopsEarly covers occupancy-proportional drains:
// draining an empty buffer allocates nothing, a sweep finds every
// resident entry wherever it hashed, and a drained buffer can be Reset
// and refilled.
func TestDrainSkipsEmptyAndStopsEarly(t *testing.T) {
	b := New(Config{Buckets: 4096, PartitionBits: 6})
	if n := testing.AllocsPerRun(10, func() {
		b.DrainAll(func(batch []Drained) {
			t.Fatalf("empty buffer drained %d entries", len(batch))
		})
	}); n != 0 {
		t.Errorf("draining an empty buffer allocated %.0f times", n)
	}
	for round := 0; round < 3; round++ {
		want := map[string]bool{}
		for i := 0; i < 200; i++ {
			k := keys.EncodeUint64(rand.Uint64())
			if b.Add(k, []byte("v"), false) {
				want[string(k)] = true
			}
		}
		if b.Len() != len(want) {
			t.Fatalf("round %d: Len %d, want %d", round, b.Len(), len(want))
		}
		b.Freeze()
		d := drainAll(b)
		if len(d) != len(want) {
			t.Fatalf("round %d: drained %d of %d resident entries", round, len(d), len(want))
		}
		for i := range d {
			if !want[string(d[i].Key)] {
				t.Fatalf("round %d: drained foreign key %x", round, d[i].Key)
			}
		}
		b.Release(d)
		if b.Len() != 0 || b.ApproxBytes() != 0 {
			t.Fatalf("round %d: Len %d bytes %d after release", round, b.Len(), b.ApproxBytes())
		}
		if b.Add([]byte("k"), []byte("v"), false) {
			t.Fatal("frozen buffer accepted a write")
		}
		b.Reset()
	}
}

// TestPutCopiesCallerBuffers: the buffer keeps no reference to the key and
// value it is handed. Overwriting them right after PutHashed changes
// nothing Get, ForEach or a drain returns, and a drained entry charges its
// holder for the whole pair.
func TestPutCopiesCallerBuffers(t *testing.T) {
	b := newSmall()
	const n = 40
	key, val := make([]byte, 8), make([]byte, 24)
	want := map[string]string{}
	for i := 0; i < n; i++ {
		k := keys.EncodeUint64(uint64(i) * 0x9e3779b97f4a7c15)
		copy(key, k)
		for j := range val {
			val[j] = byte(i)
		}
		tomb := i%5 == 0
		if ok, _ := b.PutHashed(key, keys.Hash(key), val, tomb); !ok {
			continue
		}
		if tomb {
			want[string(k)] = "tombstone"
		} else {
			want[string(k)] = string(val)
		}
		for j := range key {
			key[j] = 0xff
		}
		for j := range val {
			val[j] = 0xee
		}
	}
	if len(want) < n/2 {
		t.Fatalf("only %d of %d Puts stored", len(want), n)
	}
	got := func(v []byte, tomb bool) string {
		if tomb {
			if v != nil {
				t.Fatalf("a tombstone carries value %q", v)
			}
			return "tombstone"
		}
		return string(v)
	}
	for k, w := range want {
		v, tomb, ok := b.Get([]byte(k))
		if !ok || got(v, tomb) != w {
			t.Fatalf("Get(%x) = %q ok=%v, want %q", k, v, ok, w)
		}
	}
	seen := 0
	b.ForEach(func(k, v []byte, tomb bool) {
		if got(v, tomb) != want[string(k)] {
			t.Fatalf("ForEach(%x) = %q, want %q", k, v, want[string(k)])
		}
		seen++
	})
	d := drainAll(b)
	if seen != len(want) || len(d) != len(want) {
		t.Fatalf("ForEach saw %d, drain claimed %d, of %d entries", seen, len(d), len(want))
	}
	for i := range d {
		e := &d[i]
		if got(e.Value, e.Tombstone) != want[string(e.Key)] {
			t.Fatalf("drained %x = %q, want %q", e.Key, e.Value, want[string(e.Key)])
		}
		switch held := e.Held(); {
		case e.Tombstone && held != 0:
			t.Fatalf("a drained tombstone holds %d bytes", held)
		case !e.Tombstone && held < int64(len(e.Key)+len(e.Value)):
			t.Fatalf("drained %x holds %d bytes, less than its key and value", e.Key, held)
		}
	}
	b.Release(d)
	if b.Len() != 0 || b.ApproxBytes() != 0 {
		t.Fatalf("Len %d bytes %d after release", b.Len(), b.ApproxBytes())
	}
}
