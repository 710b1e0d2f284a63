package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/sstable"
)

// keyRowCounts are the counters a latest read moves: reads a key row
// answered, key rows retired, blocks read.
type keyRowCounts struct{ hits, retired, blocks uint64 }

func keyRowCountsOf(s *Store) keyRowCounts {
	return keyRowCounts{s.keyRowHits.Load(), s.keyRowsRetired.Load(), s.getBlockReads.Load()}
}

// flushOps flushes one L0 table of ops (kept in key order by the caller's
// choice of keys), numbering them after *seq.
func flushOps(t *testing.T, s *Store, seq *uint64, ops ...memEntry) {
	t.Helper()
	for i := range ops {
		*seq++
		ops[i].seq = *seq
	}
	if _, err := s.Flush(&memIter{entries: sortedEntries(ops)}, 2, *seq); err != nil {
		t.Fatal(err)
	}
}

func set(k uint64, v string) memEntry {
	return memEntry{key: keys.EncodeUint64(k), kind: keys.KindSet, value: []byte(v)}
}

func del(k uint64) memEntry { return memEntry{key: keys.EncodeUint64(k), kind: keys.KindDelete} }

// setRange is a Set of every key in [lo, hi) stepping by step, at value v.
func setRange(lo, hi, step uint64, v string) []memEntry {
	var es []memEntry
	for k := lo; k < hi; k += step {
		es = append(es, set(k, v))
	}
	return es
}

// expectGet reads k through Get and checks the answer (want "" is absent:
// no entry, or a tombstone) and how the read was paid for: a key-row hit or
// a walk, and whether a key row was retired on the way.
func expectGet(t *testing.T, s *Store, k uint64, want string, hit, retired bool) {
	t.Helper()
	before := keyRowCountsOf(s)
	v, _, kind, ok, err := s.Get(keys.EncodeUint64(k))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(v); (ok && kind == keys.KindSet) != (want != "") || got != want {
		t.Fatalf("Get(%d) = %q kind %v ok=%v, want %q", k, got, kind, ok, want)
	}
	after := keyRowCountsOf(s)
	if gotHit := after.hits > before.hits; gotHit != hit {
		t.Fatalf("Get(%d): key-row hit %v, want %v (%+v then %+v)", k, gotHit, hit, before, after)
	}
	if gotRetired := after.retired > before.retired; gotRetired != retired {
		t.Fatalf("Get(%d): key row retired %v, want %v (%+v then %+v)", k, gotRetired, retired, before, after)
	}
	if hit && after.blocks != before.blocks {
		t.Fatalf("Get(%d): a key-row hit read %d blocks", k, after.blocks-before.blocks)
	}
}

// TestKeyRowSurvivesUnrelatedFlushes: a key row keeps answering across
// flushes that do not hold its key — tables whose range covers it, ruled
// out by their filters, and tables whose range does not — and its first
// hit after them re-stamps it to the current flush count.
func TestKeyRowSurvivesUnrelatedFlushes(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1 << 30})
	var seq uint64
	flushOps(t, s, &seq, setRange(0, 200, 2, "even")...)
	expectGet(t, s, 100, "even", false, false) // the walk leaves the row
	expectGet(t, s, 100, "even", true, false)
	for i := 0; i < 3; i++ {
		flushOps(t, s, &seq, setRange(1, 200, 2, fmt.Sprintf("odd-%d", i))...) // range covers 100
		flushOps(t, s, &seq, setRange(1000, 1100, 1, "far")...)                // range does not
	}
	expectGet(t, s, 100, "even", true, false)
	v, key := s.vs.current.Load(), keys.EncodeUint64(100)
	if row := sstable.CachedRow(s.bcache, keyRowID, keys.Hash(key), key); row == nil || row.Stamp() != v.flushed || v.flushed != 7 {
		t.Fatalf("after its hit the row is %+v, the Version has flushed %d tables (want 7 and a row stamped so)", row, v.flushed)
	}
	expectGet(t, s, 101, "odd-2", false, false)
}

// TestFlushHoldingKeyRetiresKeyRow: a flush that holds a newer version of
// the key — a value or a tombstone — retires its row; the walk that follows
// answers with the newer version and caches it, and a tombstone row reads
// as absent.
func TestFlushHoldingKeyRetiresKeyRow(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1 << 30})
	var seq uint64
	flushOps(t, s, &seq, setRange(0, 100, 1, "v1")...)
	expectGet(t, s, 42, "v1", false, false)
	expectGet(t, s, 42, "v1", true, false)

	flushOps(t, s, &seq, set(41, "x"), set(42, "v2"), set(43, "x"))
	expectGet(t, s, 42, "v2", false, true)
	expectGet(t, s, 42, "v2", true, false)

	flushOps(t, s, &seq, del(42))
	expectGet(t, s, 42, "", false, true)
	expectGet(t, s, 42, "", true, false) // the tombstone row answers
	if _, _, kind, ok, _ := s.Get(keys.EncodeUint64(42)); !ok || kind != keys.KindDelete {
		t.Fatalf("the key row of a deleted key: kind %v ok=%v, want a tombstone", kind, ok)
	}

	flushOps(t, s, &seq, set(42, "v3"))
	expectGet(t, s, 42, "v3", false, true)
}

// TestKeyRowOlderThanRingWalks: a row stamped flushRing flushes ago still
// answers, but one stamped before the oldest flush the Version keeps is
// retired even when every flush since missed its key. The walk that
// follows reaches the row's own table, which the row answers for: it reads
// no block and re-stamps the row.
func TestKeyRowOlderThanRingWalks(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1 << 30})
	var seq uint64
	flushOps(t, s, &seq, setRange(0, 100, 1, "v")...)
	expectGet(t, s, 7, "v", false, false)
	for i := 0; i < flushRing; i++ {
		flushOps(t, s, &seq, set(uint64(1000+i), "far"))
	}
	expectGet(t, s, 7, "v", true, false)
	for i := 0; i <= flushRing; i++ {
		flushOps(t, s, &seq, set(uint64(2000+i), "far"))
	}
	blocks := s.getBlockReads.Load()
	expectGet(t, s, 7, "v", false, true)
	if n := s.getBlockReads.Load() - blocks; n != 0 {
		t.Fatalf("the walk past the retired row read %d blocks; its own table should have answered", n)
	}
	expectGet(t, s, 7, "v", true, false)
}

// TestKeyRowStampIsTheWalkedVersions: a walk over a Version that a flush
// has since superseded stamps its row with that Version's count, not the
// current one, so the flush it did not see still retires the row.
func TestKeyRowStampIsTheWalkedVersions(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1 << 30})
	var seq uint64
	flushOps(t, s, &seq, setRange(0, 100, 1, "old")...)
	old := s.PinVersion()
	defer s.ReleaseVersion(old)
	flushOps(t, s, &seq, set(5, "new"))

	key := keys.EncodeUint64(5)
	row, err := s.newestRow(old, key, keys.Hash(key)) // a Get that loaded old before the flush
	if err != nil || row == nil || string(row.Value) != "old" {
		t.Fatalf("the walk of the older Version: %+v err=%v", row, err)
	}
	expectGet(t, s, 5, "new", false, true)
}

// TestCompactionRetiresNoKeyRow: compactions — a trivial move, then a
// merge into the bottom level that drops a tombstone and the value it
// shadowed — retire no key row and change no answer.
func TestCompactionRetiresNoKeyRow(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1 << 30})
	compact := func() {
		t.Helper()
		s.vs.mu.Lock()
		s.opts.L0CompactionTrigger = 1
		s.vs.mu.Unlock()
		s.WaitForCompactions()
		s.vs.mu.Lock()
		s.opts.L0CompactionTrigger = 100
		s.vs.mu.Unlock()
		if n := s.NumLevelFiles(0); n != 0 {
			t.Fatalf("%d L0 tables left after the compaction", n)
		}
	}
	want := map[uint64]string{}
	var seq uint64
	flushOps(t, s, &seq, append(setRange(0, 50, 1, "v1"), set(60, "v1"))...)
	for k := uint64(0); k < 50; k++ {
		want[k] = "v1"
	}
	want[60] = "v1"
	readAll := func(hit bool) {
		t.Helper()
		for k := uint64(0); k <= 60; k++ {
			_, has := want[k]
			expectGet(t, s, k, want[k], hit && has, false)
		}
	}
	readAll(false)
	readAll(true)

	compact()
	if m := s.trivialMoves.Load(); m != 1 {
		t.Fatalf("%d trivial moves, want 1", m)
	}
	readAll(true)

	flushOps(t, s, &seq, append(setRange(0, 10, 1, "v2"), del(60))...)
	for k := uint64(0); k < 10; k++ {
		want[k] = "v2"
	}
	want[60] = ""
	for k := uint64(0); k <= 60; k++ {
		_, has := want[k]
		changed := k < 10 || k == 60
		expectGet(t, s, k, want[k], has && !changed, changed)
	}

	compact()
	if c, m := s.compactions.Load(), s.trivialMoves.Load(); c != 2 || m != 1 {
		t.Fatalf("%d compactions, %d of them trivial moves; want a merge after the move", c, m)
	}
	if row, err := s.vs.current.Load().getAt(s, keys.EncodeUint64(60), keys.Hash(keys.EncodeUint64(60)), ^uint64(0), true, nil); err != nil || row != nil {
		t.Fatalf("the merge into the bottom level kept key 60: %+v err=%v", row, err)
	}
	readAll(true)
}

// TestKeyRowsUnderFlushesAndCompactions races latest reads against a
// writer that flushes rounds of Sets and Deletes over a few hot keys while
// compactions merge, move and drop them. Every answer must be the newest
// version of its key after some prefix of the rounds between the last one
// flushed before the read began and the last one whose flush had begun
// when it ended.
func TestKeyRowsUnderFlushesAndCompactions(t *testing.T) {
	const (
		nKeys   = 48
		rounds  = 60
		readers = 3
	)
	s := openTestStore(t, Options{
		L0CompactionTrigger: 2, BaseLevelBytes: 16 << 10, TargetFileSize: 4 << 10,
		BlockSize: 256, CompactionThreads: 2, BlockCacheBytes: 24 << 10,
	})

	// The schedule, fixed before any read: round r's ops, and for every key
	// its newest entry after each prefix of rounds (nil: none).
	rng := rand.New(rand.NewSource(63))
	type version struct {
		seq  uint64
		kind keys.Kind
	}
	var (
		ops    [rounds][]memEntry
		newest [rounds + 1][nKeys]*version
		seq    uint64
	)
	value := func(k, seq uint64) []byte {
		return []byte(fmt.Sprintf("k%d@%d/%s", k, seq, bytes.Repeat([]byte("x"), 40)))
	}
	for r := 0; r < rounds; r++ {
		newest[r+1] = newest[r]
		for k := uint64(0); k < nKeys; k++ {
			if rng.Intn(3) > 0 {
				continue
			}
			seq++
			e := memEntry{key: keys.EncodeUint64(k), seq: seq, kind: keys.KindSet, value: value(k, seq)}
			if rng.Intn(6) == 0 {
				e.kind, e.value = keys.KindDelete, nil
			}
			ops[r] = append(ops[r], e)
			newest[r+1][k] = &version{seq, e.kind}
		}
	}
	lastSeq := seq

	var begun, flushed atomic.Int64 // rounds whose flush has begun, returned
	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for flushed.Load() < rounds && !failed.Load() {
				k := uint64(rng.Intn(nKeys))
				lo := flushed.Load()
				v, sq, kind, ok, err := s.Get(keys.EncodeUint64(k))
				hi := begun.Load()
				if err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
				if ok && kind == keys.KindSet && !bytes.Equal(v, value(k, sq)) {
					t.Errorf("key %d: value %q at seq %d", k, v, sq)
					failed.Store(true)
					return
				}
				match := false
				for p := lo; p <= hi && !match; p++ {
					n := newest[p][k]
					switch {
					case !ok:
						match = n == nil || n.kind == keys.KindDelete
					case n != nil:
						match = n.seq == sq && n.kind == kind
					}
				}
				if !match {
					t.Errorf("key %d: read seq %d kind %v ok=%v, not the newest version after any of rounds %d..%d", k, sq, kind, ok, lo, hi)
					failed.Store(true)
					return
				}
			}
		}(g)
	}
	for r := 0; r < rounds && !failed.Load(); r++ {
		begun.Store(int64(r + 1))
		if _, err := s.Flush(&memIter{entries: sortedEntries(ops[r])}, 2, lastSeq); err != nil {
			t.Fatal(err)
		}
		flushed.Store(int64(r + 1))
	}
	flushed.Store(rounds)
	wg.Wait()
	s.WaitForCompactions()
	c := keyRowCountsOf(s)
	if s.compactions.Load() == 0 || c.hits == 0 || c.retired == 0 {
		t.Fatalf("the race did not exercise its cases: %d compactions, counters %+v", s.compactions.Load(), c)
	}
	t.Logf("%d compactions (%d moves), counters %+v", s.compactions.Load(), s.trivialMoves.Load(), c)
}

// TestKeyRowsSharedWithSnapshotReads: latest and bounded reads of a key read its
// block once between them. A snapshot read whose walk reaches the table a
// key row was read from takes the key row; a latest read whose walk
// reaches a table a snapshot read left a row for takes that row.
func TestKeyRowsSharedWithSnapshotReads(t *testing.T) {
	s := openTestStore(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1 << 30})
	var seq uint64
	flushOps(t, s, &seq, setRange(0, 100, 1, "v")...)
	v := s.PinVersion()
	defer s.ReleaseVersion(v)
	blocks := func(what string, read func(k uint64), k uint64, want uint64) {
		t.Helper()
		before := s.getBlockReads.Load()
		read(k)
		if n := s.getBlockReads.Load() - before; n != want {
			t.Fatalf("%s of %d read %d blocks, want %d", what, k, n, want)
		}
	}
	latest := func(k uint64) {
		t.Helper()
		if val, _, _, ok, err := s.Get(keys.EncodeUint64(k)); err != nil || !ok || string(val) != "v" {
			t.Fatalf("Get(%d) = %q ok=%v err=%v", k, val, ok, err)
		}
	}
	bounded := func(k uint64) {
		t.Helper()
		if val, _, _, ok, err := s.GetAt(v, keys.EncodeUint64(k), seq); err != nil || !ok || string(val) != "v" {
			t.Fatalf("GetAt(%d) = %q ok=%v err=%v", k, val, ok, err)
		}
	}
	blocks("a first Get", latest, 1, 1)
	blocks("a snapshot read after it", bounded, 1, 0)
	blocks("a first snapshot read", bounded, 2, 1)
	blocks("a Get after it", latest, 2, 0)
	blocks("a second Get", latest, 2, 0)
}
