package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/membuffer"
)

// parkOnce returns a hook body that, the first time the named point is
// reached, closes reached and blocks until release is closed.
func parkOnce(at hookPoint, reached, release chan struct{}) func(hookPoint) {
	var once sync.Once
	return func(p hookPoint) {
		if p != at {
			return
		}
		once.Do(func() {
			close(reached)
			<-release
		})
	}
}

func blocked(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(100 * time.Millisecond):
		return true
	}
}

// TestRecycledMembufferOutlivesDrainer is the recycling-safety test. A
// background drainer claims a batch from Membuffer X and is parked inside
// its read section. The persist seal that retires X must wait it out: the
// batch belongs in the Memtable being sealed. X comes back into service at
// the next seal, and
// what is written into it must stay out of the flushed Memtable: had the
// drainer been able to wake up over a re-activated X, it would have
// drained live entries into the flushed Memtable and lost them.
func TestRecycledMembufferOutlivesDrainer(t *testing.T) {
	cfg := testConfig(t)
	cfg.DrainThreads = 1
	// Big enough that a round of writes stays under the drainer's low-water
	// mark: it trickles, and most of the round is still resident at the seal.
	cfg.MemoryBytes = 8 << 20
	db := openTestDB(t, cfg)

	const round = 3000
	want := map[string]string{}
	// put writes one round starting at key index base; rounds overlap, so
	// later ones overwrite part of the earlier ones.
	put := func(tag string, base int) {
		t.Helper()
		for i := 0; i < round; i++ {
			k, v := spreadKey(uint64(base+i)), fmt.Sprintf("%s-%d", tag, i)
			if err := db.Put(bg, k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[string(k)] = v
		}
	}
	check := func(what string) {
		t.Helper()
		pairs, err := db.Scan(bg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != len(want) {
			t.Fatalf("%s: scan returned %d pairs, want %d", what, len(pairs), len(want))
		}
		for _, p := range pairs {
			if want[string(p.Key)] != string(p.Value) {
				t.Fatalf("%s: key %x = %q, want %q", what, p.Key, p.Value, want[string(p.Key)])
			}
		}
	}

	claimed, release := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookDrainerClaimed, claimed, release)
	db.testHook.Store(&hook)
	put("a", 0)
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("the background drainer never claimed a batch")
	}
	x := db.gen.Load().mbf
	m1 := db.gen.Load().mtb

	// Seal 1, a persist seal: blocked for as long as the drainer holds its
	// claim on X.
	seal1 := make(chan struct{})
	go func() {
		defer close(seal1)
		if err := db.persistOnce(); err != nil {
			t.Error(err)
		}
	}()
	if !blocked(seal1) {
		t.Fatal("a seal completed while a drainer was still inside its read section")
	}
	close(release)
	<-seal1
	db.testHook.Store(nil)
	if x.Len() != 0 || !x.Frozen() {
		t.Fatalf("seal 1 left X with %d entries, frozen=%v", x.Len(), x.Frozen())
	}
	if db.immMtb.Load() != nil || db.gen.Load().mtb == m1 {
		t.Fatal("persist did not retire the first Memtable")
	}
	m1Len, m1Updates := m1.list.Len(), m1.list.Updates()
	if db.gen.Load().mbf == x {
		t.Fatal("X stayed in service through the seal that retired it")
	}
	put("b", round/2)

	// Seal 2 re-activates X; what is written into it afterwards must stay
	// out of the flushed Memtable.
	check("after the persist seal")
	if db.gen.Load().mbf != x {
		t.Fatal("X was not recycled by the seal after the one that retired it")
	}
	if x.Frozen() {
		t.Fatal("recycled buffer still frozen")
	}
	put("c", round)
	check("after writing into the recycled buffer")
	if m1.list.Len() != m1Len || m1.list.Updates() != m1Updates {
		t.Fatalf("the flushed Memtable changed: %d keys/%d updates, was %d/%d",
			m1.list.Len(), m1.list.Updates(), m1Len, m1Updates)
	}

	// Nothing acknowledged is lost across a restart either.
	dir := db.cfg.Dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Dir: dir, MemoryBytes: cfg.MemoryBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, v := range want {
		got, ok, err := db2.Get(bg, []byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after reopen: key %x = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
}

// TestSealWaitsForDrainerMidBatch parks the background drainer between
// claiming a batch and inserting it. A seal must wait for it — the batch
// carries entries the view has to contain, and the drainer's reference to
// the buffer must die before the buffer can be recycled — while fast-path
// writers carry on in the fresh Membuffer.
func TestSealWaitsForDrainerMidBatch(t *testing.T) {
	cfg := testConfig(t)
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	claimed, release := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookDrainerClaimed, claimed, release)
	db.testHook.Store(&hook)

	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("the background drainer never claimed a batch")
	}

	type result struct {
		seen int
		err  error
	}
	opened := make(chan struct{})
	res := make(chan result, 1)
	go func() {
		it, err := db.NewIterator(bg, nil, nil)
		close(opened)
		if err != nil {
			res <- result{err: err}
			return
		}
		defer it.Close()
		r := result{}
		for ok := it.First(); ok; ok = it.Next() {
			if i := keys.DecodeUint64(it.Value()); i < n {
				r.seen++
			}
		}
		r.err = it.Err()
		res <- r
	}()
	if !blocked(opened) {
		t.Fatal("an iterator opened while a drainer held a claimed batch outside the Memtable")
	}
	// The seal is stuck in its grace period; the fast path is not.
	for i := 0; i < 100; i++ {
		if err := db.Put(bg, spreadKey(uint64(n+i)), keys.EncodeUint64(n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.MemtableWrites != 0 {
		// Not fatal by itself, but then the line above proved nothing.
		t.Logf("%d writes took the slow path", st.MemtableWrites)
	}
	close(release)
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.seen != n {
		t.Fatalf("the view holds %d of the %d keys written before it opened", r.seen, n)
	}
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n+100 {
		t.Fatalf("final scan returned %d pairs, want %d", len(pairs), n+100)
	}
}

// bucketMates returns n keys other than key that land in key's bucket of
// b: the same partition (top bits) and the same hash slot within it.
// Putting them fills the bucket, so the next new key there takes the slow
// path to the Memtable.
func bucketMates(b *membuffer.Buffer, partBits uint, key []byte, n int) [][]byte {
	perPart := uint64(b.Capacity() / membuffer.BucketSlots / b.Partitions())
	part, slot := keys.PartitionOf(key, partBits), keys.Hash(key)%perPart
	var mates [][]byte
	for i := uint64(1); len(mates) < n; i++ {
		c := keys.EncodeUint64(keys.DecodeUint64(key)&^0xffffffff | i)
		if keys.PartitionOf(c, partBits) == part && keys.Hash(c)%perPart == slot && !bytes.Equal(c, key) {
			mates = append(mates, c)
		}
	}
	return mates
}

// slowPut writes key through the slow path: it fills key's bucket in the
// active Membuffer, then Puts key, and reports whether the Memtable took
// it — false in the rare run where a drainer emptied the bucket in
// between. It runs in a goroutine so a caller can tell a blocked Put.
func slowPut(t *testing.T, db *DB, key, value []byte) <-chan bool {
	t.Helper()
	mbf := db.gen.Load().mbf
	mates := bucketMates(mbf, db.cfg.PartitionBits, key, 16)
	done := make(chan bool, 1)
	go func() {
		for _, m := range mates {
			if err := db.Put(bg, m, []byte("mate")); err != nil {
				t.Error(err)
			}
		}
		before := db.Stats().MemtableWrites
		if err := db.Put(bg, key, value); err != nil {
			t.Error(err)
		}
		done <- db.Stats().MemtableWrites > before
	}()
	return done
}

// parkSeal runs seal, which must seal the Membuffer (a persist, or a view
// open), and parks it where the sealer has let writers resume and is about
// to drain the retired Membuffer. It reports false, with seal finished,
// when the seal had nothing resident to drain.
func parkSeal(t *testing.T, db *DB, seal func()) (parked bool, release func()) {
	t.Helper()
	reached, unpark := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookSealDraining, reached, unpark)
	db.testHook.Store(&hook)
	done := make(chan struct{})
	go func() {
		defer close(done)
		seal()
	}()
	release = func() {
		close(unpark)
		<-done
		db.testHook.Store(nil)
	}
	select {
	case <-reached:
		return true, release
	case <-done:
		db.testHook.Store(nil)
		return false, nil
	case <-time.After(10 * time.Second):
		t.Fatal("the seal neither parked nor finished")
		return false, nil
	}
}

// parkPersist is parkSeal for a persist.
func parkPersist(t *testing.T, db *DB) (parked bool, release func()) {
	t.Helper()
	return parkSeal(t, db, func() {
		if err := db.persistOnce(); err != nil {
			t.Error(err)
		}
	})
}

// parkView is parkSeal for a Snapshot, which it stores in *snap.
func parkView(t *testing.T, db *DB, snap *kv.View) (parked bool, release func()) {
	t.Helper()
	return parkSeal(t, db, func() {
		var err error
		if *snap, err = db.Snapshot(bg); err != nil {
			t.Error(err)
		}
	})
}

// TestPersistSealLetsSlowPathWritersThrough parks a persist seal in the
// drain of the retired Membuffer. A Put that the full bucket of the new
// Membuffer sends to the Memtable must complete in the new generation
// while the drain is parked: no writer touches the sealed Memtable, so
// none waits for it (§4.2's never-blocking switch).
func TestPersistSealLetsSlowPathWritersThrough(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20 // the writes below stay resident
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	for i := 0; i < 500; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	parked, release := parkPersist(t, db)
	if !parked {
		t.Fatal("nothing resident in the Membuffer at the persist")
	}
	sealed := db.immMtb.Load()
	var key []byte
	for i := uint64(0); ; i++ {
		if i == 10 {
			release()
			t.Fatal("no Put took the slow path")
		}
		key = spreadKey(1<<20 + i)
		select {
		case slow := <-slowPut(t, db, key, []byte("after")):
			if !slow {
				continue
			}
		case <-time.After(5 * time.Second):
			release()
			t.Fatal("a slow-path Put waited for a persist seal's drain")
		}
		break
	}
	if db.gen.Load().mtb == sealed {
		t.Fatal("the Put completed before the generation switch")
	}
	if _, ok := sealed.get(key, keys.Hash(key)); ok {
		t.Fatal("the slow-path Put landed in the sealed Memtable")
	}
	if v, ok, err := db.Get(bg, key); err != nil || !ok || string(v) != "after" {
		t.Fatalf("Get during the drain = %q %v %v", v, ok, err)
	}
	release()
	for i := 0; i < 500; i++ {
		if v, ok, err := db.Get(bg, spreadKey(uint64(i))); err != nil || !ok || string(v) != "before" {
			t.Fatalf("key %d after the persist = %q %v %v", i, v, ok, err)
		}
	}
}

// TestPersistSealNewestWinsAcrossBoundary overwrites a key of the sealed
// Membuffer in the new generation while the persist seal's drain is
// parked, through the slow path. The drained copy is numbered from the
// block the seal reserved before writers resumed, so it sorts below the
// overwrite: through the drain, both flushes, a compaction that merges
// them and a reopen, Get, an iterator and a Snapshot read the overwrite.
func TestPersistSealNewestWinsAcrossBoundary(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20
	cfg.DrainThreads = 1
	cfg.Storage.L0CompactionTrigger = 2 // the two flushes below compact
	db := openTestDB(t, cfg)

	var key []byte
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatal("never overwrote, on the slow path, a key resident in a sealed Membuffer")
		}
		key = spreadKey(uint64(1<<20 + attempt))
		for i := 0; i < 200; i++ { // company, so the seal has a drain to park
			if err := db.Put(bg, spreadKey(uint64(attempt*1000+i)), []byte("filler")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Put(bg, key, []byte("old")); err != nil {
			t.Fatal(err)
		}
		parked, release := parkPersist(t, db)
		if !parked {
			continue
		}
		if _, _, ok := db.immGen.Load().mbf.Get(key); !ok {
			release() // drained before the seal; try another key
			continue
		}
		select {
		case slow := <-slowPut(t, db, key, []byte("new")):
			if !slow {
				release()
				continue
			}
		case <-time.After(5 * time.Second):
			release()
			t.Fatal("a slow-path Put waited for a persist seal's drain")
		}
		if v, ok, err := db.Get(bg, key); err != nil || !ok || string(v) != "new" {
			release()
			t.Fatalf("Get while the sealed Membuffer drains = %q %v %v, want new", v, ok, err)
		}
		release()
		break
	}
	if err := db.persistOnce(); err != nil { // flush the overwrite too
		t.Fatal(err)
	}
	db.store.WaitForCompactions()
	if db.store.Metrics().Compactions == 0 {
		t.Fatal("the two flushes were not compacted together")
	}

	check := func(what string, db *DB) {
		t.Helper()
		if v, ok, err := db.Get(bg, key); err != nil || !ok || string(v) != "new" {
			t.Fatalf("%s: Get = %q %v %v, want new", what, v, ok, err)
		}
		it, err := db.NewIterator(bg, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !it.First() || !bytes.Equal(it.Key(), key) || string(it.Value()) != "new" {
			t.Fatalf("%s: iterator at %x = %q, want new", what, it.Key(), it.Value())
		}
		it.Close()
		snap, err := db.Snapshot(bg)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if v, ok, err := snap.Get(bg, key); err != nil || !ok || string(v) != "new" {
			t.Fatalf("%s: Snapshot Get = %q %v %v, want new", what, v, ok, err)
		}
	}
	check("after compaction", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, Config{Dir: cfg.Dir, MemoryBytes: cfg.MemoryBytes})
	check("after reopen", db2)
}

// TestViewSealLetsSlowPathWritersThrough parks a view seal in the drain of
// the retired Membuffer into the live Memtable. A Put that the full bucket
// of the new Membuffer sends to that same Memtable must complete while the
// drain is parked: writers wait only for the seal's grace period.
func TestViewSealLetsSlowPathWritersThrough(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20 // the writes below stay resident
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	for i := 0; i < 500; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	var snap kv.View
	parked, release := parkView(t, db, &snap)
	if !parked {
		t.Fatal("nothing resident in the Membuffer at the view seal")
	}
	live := db.gen.Load().mtb
	var key []byte
	for i := uint64(0); ; i++ {
		if i == 10 {
			release()
			t.Fatal("no Put took the slow path")
		}
		key = spreadKey(1<<20 + i)
		select {
		case slow := <-slowPut(t, db, key, []byte("after")):
			if !slow {
				continue
			}
		case <-time.After(5 * time.Second):
			release()
			t.Fatal("a slow-path Put waited for a view seal's drain")
		}
		break
	}
	if e, ok := live.get(key, keys.Hash(key)); !ok || e.Seq <= db.immSeal.Load() {
		t.Fatalf("the slow-path Put is not in the live Memtable above the seal point: %+v %v", e, ok)
	}
	if v, ok, err := db.Get(bg, key); err != nil || !ok || string(v) != "after" {
		t.Fatalf("Get during the drain = %q %v %v", v, ok, err)
	}
	release()
	defer snap.Close()
	if _, ok, err := snap.Get(bg, key); err != nil || ok {
		t.Fatalf("the view sees a write made after its seal: %v %v", ok, err)
	}
	for i := 0; i < 500; i++ {
		k := spreadKey(uint64(i))
		if v, ok, err := snap.Get(bg, k); err != nil || !ok || string(v) != "before" {
			t.Fatalf("key %d in the view = %q %v %v", i, v, ok, err)
		}
		if v, ok, err := db.Get(bg, k); err != nil || !ok || string(v) != "before" {
			t.Fatalf("key %d after the seal = %q %v %v", i, v, ok, err)
		}
	}
}

// overwriteWhileDraining parks a view seal's drain into the live Memtable
// with a key resident in the retired Membuffer ("old") and overwritten,
// through the slow path, in the live Memtable ("new"). It returns the key
// and release, which lets the drain finish; the view the seal opened is
// stored in *snap once it does.
func overwriteWhileDraining(t *testing.T, db *DB, snap *kv.View) (key []byte, release func()) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		key = spreadKey(uint64(1<<20 + attempt))
		for i := 0; i < 200; i++ { // company, so the seal has a drain to park
			if err := db.Put(bg, spreadKey(uint64(attempt*1000+i)), []byte("filler")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Put(bg, key, []byte("old")); err != nil {
			t.Fatal(err)
		}
		parked, release := parkView(t, db, snap)
		if !parked {
			(*snap).Close()
			continue
		}
		if _, _, ok := db.immGen.Load().mbf.Get(key); ok {
			select {
			case slow := <-slowPut(t, db, key, []byte("new")):
				if slow {
					return key, release
				}
			case <-time.After(5 * time.Second):
				release()
				t.Fatal("a slow-path Put waited for a view seal's drain")
			}
		}
		release() // drained before the seal, or the Put found room; try another key
		(*snap).Close()
	}
	t.Fatal("never overwrote, on the slow path, a key resident in a draining Membuffer")
	return nil, nil
}

// TestViewSealNewestWinsAcrossBoundary overwrites a key of the retired
// Membuffer, through the slow path, while a view seal's drain into the
// live Memtable is parked. The drained copy is numbered from the block the
// seal reserved before writers resumed, so it sorts below the overwrite
// however late it arrives: the view that seal opened reads the old value,
// and Get reads the new one during the drain, after it, after a persist
// and after a reopen.
func TestViewSealNewestWinsAcrossBoundary(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	var snap kv.View
	key, release := overwriteWhileDraining(t, db, &snap)
	if v, ok, err := db.Get(bg, key); err != nil || !ok || string(v) != "new" {
		release()
		t.Fatalf("Get while the retired Membuffer drains = %q %v %v, want new", v, ok, err)
	}
	release()
	defer snap.Close()

	check := func(what string, db *DB) {
		t.Helper()
		if v, ok, err := db.Get(bg, key); err != nil || !ok || string(v) != "new" {
			t.Fatalf("%s: Get = %q %v %v, want new", what, v, ok, err)
		}
	}
	checkView := func(what string) {
		t.Helper()
		if v, ok, err := snap.Get(bg, key); err != nil || !ok || string(v) != "old" {
			t.Fatalf("%s: the view = %q %v %v, want old", what, v, ok, err)
		}
	}
	check("after the drain", db)
	checkView("after the drain")
	if err := db.persistOnce(); err != nil {
		t.Fatal(err)
	}
	check("after a persist", db)
	checkView("after a persist")
	snap.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, Config{Dir: cfg.Dir, MemoryBytes: cfg.MemoryBytes})
	check("after reopen", db2)
}

// TestGetWeighsDrainingCopyByItsOwnSeal parks a Get that has found a key's
// old value in a view seal's draining Membuffer and its slow-path
// overwrite in the live Memtable, just before it weighs the two. That
// seal's drain then finishes and a second view seal runs whole, which
// recycles the drained buffer and moves the seal point past the
// overwrite. The Get must still return the overwrite: a copy is weighed
// only against the seal that retired the buffer it was read from.
func TestGetWeighsDrainingCopyByItsOwnSeal(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	var snap kv.View
	key, release := overwriteWhileDraining(t, db, &snap)
	reached, unpark := make(chan struct{}), make(chan struct{})
	hook := parkOnce(hookGetWeighing, reached, unpark)
	db.testHook.Store(&hook)
	type result struct {
		v   []byte
		ok  bool
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, ok, err := db.Get(bg, key)
		got <- result{v, ok, err}
	}()
	select {
	case <-reached:
	case r := <-got:
		release()
		t.Fatalf("Get = %q without weighing a draining copy", r.v)
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("Get neither weighed a draining copy nor returned")
	}
	release() // the first seal's drain ends; the Get stays parked
	snap.Close()
	if err := openCloseView(bg, db, 1); err != nil {
		t.Fatal(err)
	}
	if e, ok := db.gen.Load().mtb.get(key, keys.Hash(key)); !ok || string(e.Value) != "new" || e.Seq > db.immSeal.Load() {
		t.Fatalf("the second seal's point is not past the overwrite: %+v %v", e, ok)
	}
	close(unpark)
	if r := <-got; r.err != nil || !r.ok || string(r.v) != "new" {
		t.Fatalf("Get across two seals = %q %v %v, want new", r.v, r.ok, r.err)
	}
}

// TestViewSealDrainingCopyBeatsOlderEntry parks a view seal's drain while
// a key's older version sits in the live Memtable (a slow-path write from
// before an earlier seal) and its newer one in the draining Membuffer. Get
// must read the newer one: the draining copy beats a Memtable entry
// numbered at or below the seal point.
func TestViewSealDrainingCopyBeatsOlderEntry(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 8 << 20
	cfg.DrainThreads = 1
	db := openTestDB(t, cfg)

	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatal("never caught a key in both the live Memtable and a draining Membuffer")
		}
		key := spreadKey(uint64(2<<20 + attempt))
		if !<-slowPut(t, db, key, []byte("memtable")) {
			continue
		}
		// A view seal empties the Membuffer, so the next Put of key lands there.
		if err := openCloseView(bg, db, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(bg, key, []byte("membuffer")); err != nil {
			t.Fatal(err)
		}
		var snap kv.View
		parked, release := parkView(t, db, &snap)
		if !parked {
			snap.Close()
			continue
		}
		_, _, resident := db.immGen.Load().mbf.Get(key)
		v, ok, err := db.Get(bg, key)
		release()
		snap.Close()
		if !resident {
			continue // drained before the seal; try another key
		}
		if err != nil || !ok || string(v) != "membuffer" {
			t.Fatalf("Get while the Membuffer drains = %q %v %v, want membuffer", v, ok, err)
		}
		return
	}
}
