package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flodb/internal/keys"
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

// TestRecycledMembufferOutlivesNoHelper is the recycling-safety test. A
// stalled writer's helper loads the drainTask of seal 1 and is parked
// before it claims anything. The buffer that seal drained (X) must not
// re-enter service while the helper can still reach it: the next seal — a
// persist seal, whose sealed Memtable is flushed and dropped — has to wait
// out the helper's read section, and X comes back only at the seal after
// that. Had the helper been able to wake up over a re-activated X, it
// would have drained live entries into the flushed Memtable and lost them.
func TestRecycledMembufferOutlivesNoHelper(t *testing.T) {
	cfg := testConfig(t)
	cfg.DrainThreads = 1
	// Big enough that a round of writes stays under the drainer's low-water
	// mark: it trickles, and the round is still resident when the seal runs.
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

	put("a", 0)
	x := db.gen.Load().mbf
	m1 := db.gen.Load().mtb
	if x.Len() == 0 {
		t.Fatal("nothing resident in the Membuffer; the seal would publish no drain")
	}

	published, helperHolding := make(chan struct{}), make(chan struct{})
	helperParked, releaseHelper := make(chan struct{}), make(chan struct{})
	sealer := parkOnce(hookDrainPublished, published, helperHolding)
	helper := parkOnce(hookHelperLoaded, helperParked, releaseHelper)
	hook := func(at hookPoint) { sealer(at); helper(at) }
	db.testHook.Store(&hook)

	// Seal 1 publishes its drain and waits for the helper to load it.
	seal1 := make(chan struct{})
	go func() {
		defer close(seal1)
		it, err := db.NewIterator(bg, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		it.Close()
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("seal 1 never published a drain")
	}
	helperDone := make(chan struct{})
	go func() { // what update's slow path does while pauseWriters is up
		defer close(helperDone)
		h := db.handle()
		defer db.putHandle(h)
		db.helpPublishedDrain(h)
	}()
	<-helperParked
	close(helperHolding)
	<-seal1
	if x.Len() != 0 || !x.Frozen() {
		t.Fatalf("seal 1 left X with %d entries, frozen=%v", x.Len(), x.Frozen())
	}

	// Seal 2, a persist seal: blocked for as long as the helper holds the
	// task, though the writes below still complete in the fresh Membuffer.
	put("b", round/2)
	seal2 := make(chan struct{})
	go func() {
		defer close(seal2)
		if err := db.persistOnce(); err != nil {
			t.Error(err)
		}
	}()
	if !blocked(seal2) {
		t.Fatal("a seal completed while a helper of the previous seal was still inside its read section")
	}
	close(releaseHelper)
	<-helperDone
	<-seal2
	if db.immMtb.Load() != nil || db.gen.Load().mtb == m1 {
		t.Fatal("persist did not retire the first Memtable")
	}
	m1Len, m1Updates := m1.list.Len(), m1.list.Updates()
	if db.gen.Load().mbf == x {
		t.Fatal("X re-entered service one seal after it was retired")
	}

	// Seal 3 re-activates X; what is written into it afterwards must stay
	// out of the flushed Memtable.
	check("after the persist seal")
	if db.gen.Load().mbf != x {
		t.Fatal("X was not recycled two seals after it was retired")
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
