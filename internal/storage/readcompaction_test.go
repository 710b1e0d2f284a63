package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
)

// flushRound flushes one L0 table holding keys [0, n) at value
// "round-<round>", with sequence numbers after *seq.
func flushRound(t *testing.T, s *Store, seq *uint64, round, n int) *FileMeta {
	t.Helper()
	var entries []memEntry
	for i := 0; i < n; i++ {
		*seq++
		entries = append(entries, memEntry{
			key: keys.EncodeUint64(uint64(i)), seq: *seq, kind: keys.KindSet,
			value: []byte(fmt.Sprintf("round-%d", round)),
		})
	}
	fm, err := s.Flush(&memIter{entries: sortedEntries(entries)}, uint64(round+2), *seq)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// twoL0Tables opens a store whose triggers never fire on their own and
// flushes two tables over the same 100 keys, the second newer.
func twoL0Tables(t *testing.T) *Store {
	t.Helper()
	s := openTestStore(t, Options{BaseLevelBytes: 1 << 30})
	var seq uint64
	flushRound(t, s, &seq, 0, 100)
	flushRound(t, s, &seq, 1, 100)
	if n := s.NumLevelFiles(0); n != 2 {
		t.Fatalf("L0 holds %d tables, want 2", n)
	}
	return s
}

// tableNums lists the table files in dir.
func tableNums(t *testing.T, dir string) []uint64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var nums []uint64
	for _, e := range ents {
		if kind, num := ParseFileName(e.Name()); kind == KindTable {
			nums = append(nums, num)
		}
	}
	slices.Sort(nums)
	return nums
}

func TestSeekBudgetEmptiesL0(t *testing.T) {
	s := twoL0Tables(t)
	budget := seekBudget(s.vs.current.Load().files[0][0].Size)
	for i := int64(0); i < budget; i++ {
		it, release, err := s.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		it.Seek(keys.EncodeUint64(uint64(i % 100)))
		if !it.Valid() {
			t.Fatalf("seek %d found nothing: %v", i, it.Err())
		}
		release()
	}
	s.WaitForCompactions()
	if n := s.NumLevelFiles(0); n != 0 {
		t.Fatalf("L0 holds %d tables after %d iterator opens, want 0", n, budget)
	}
	if r, n := s.readCompactions.Load(), s.compactions.Load(); r != 1 || n != 1 {
		t.Fatalf("read compactions %d of %d, want 1 of 1", r, n)
	}

	it, release, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if got, want := keys.DecodeUint64(it.Key()), uint64(i); got != want {
			t.Fatalf("iterator entry %d has key %d, want %d", i, got, want)
		}
		if string(it.Value()) != "round-1" {
			t.Fatalf("iterator key %d = %q, want round-1", i, it.Value())
		}
		v, _, _, ok, err := s.Get(it.Key())
		if err != nil || !ok || string(v) != "round-1" {
			t.Fatalf("Get(%d) = %q ok=%v err=%v, want round-1", i, v, ok, err)
		}
		i++
	}
	if err := it.Err(); err != nil || i != 100 {
		t.Fatalf("iterator saw %d keys, err %v; want 100", i, err)
	}
}

func TestGetsSpendNoSeekBudget(t *testing.T) {
	s := twoL0Tables(t)
	for i := 0; i < 10000; i++ {
		k := keys.EncodeUint64(uint64(i % 100))
		if v, _, _, ok, err := s.Get(k); err != nil || !ok || string(v) != "round-1" {
			t.Fatalf("Get(%d) = %q ok=%v err=%v", i%100, v, ok, err)
		}
	}
	s.WaitForCompactions()
	if n := s.NumLevelFiles(0); n != 2 {
		t.Fatalf("L0 holds %d tables after 10k Gets, want 2", n)
	}
	if n := s.compactions.Load(); n != 0 {
		t.Fatalf("%d compactions after Gets alone, want 0", n)
	}
}

func TestTrivialMoveKeepsTableNumber(t *testing.T) {
	dir := t.TempDir()
	opts := Options{L0CompactionTrigger: 1, BaseLevelBytes: 1 << 30}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	fm := flushRound(t, s, &seq, 0, 100)
	s.WaitForCompactions()
	if got := tableNums(t, dir); !slices.Equal(got, []uint64{fm.Num}) {
		t.Fatalf("tables on disk %v after the move, want only %d", got, fm.Num)
	}
	l1 := s.vs.current.Load().files[1]
	if s.NumLevelFiles(0) != 0 || len(l1) != 1 || l1[0].Num != fm.Num {
		t.Fatalf("after the move L0 holds %d tables and L1 %v, want table %d at L1", s.NumLevelFiles(0), l1, fm.Num)
	}
	if m, n := s.trivialMoves.Load(), s.compactions.Load(); m != 1 || n != 1 {
		t.Fatalf("trivial moves %d of %d compactions, want 1 of 1", m, n)
	}
	if v, _, _, ok, err := s.Get(keys.EncodeUint64(7)); err != nil || !ok || string(v) != "round-0" {
		t.Fatalf("Get(7) after the move = %q ok=%v err=%v", v, ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l1 = s.vs.current.Load().files[1]
	if s.NumLevelFiles(0) != 0 || len(l1) != 1 || l1[0].Num != fm.Num {
		t.Fatalf("after a reopen L0 holds %d tables and L1 %v, want table %d at L1", s.NumLevelFiles(0), l1, fm.Num)
	}
	if v, _, _, ok, err := s.Get(keys.EncodeUint64(7)); err != nil || !ok || string(v) != "round-0" {
		t.Fatalf("Get(7) after a reopen = %q ok=%v err=%v", v, ok, err)
	}
}

// TestIteratorsDuringReadCompaction opens iterators over L0 while the seek
// budgets they spend install read-triggered compactions that delete the
// tables they merged. Every iterator must read consecutive keys, each at
// a round no older than the newest flushed before it opened.
func TestIteratorsDuringReadCompaction(t *testing.T) {
	s := openTestStore(t, Options{
		BaseLevelBytes:     1 << 30,
		BlockCacheBytes:    -1,
		TableCacheCapacity: 4,
	})
	const keySpace = 200
	var seq uint64
	var round atomic.Int64
	flushed := []uint64{flushRound(t, s, &seq, 0, keySpace).Num}

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := round.Load()
				it, release, err := s.NewIterator()
				if err != nil {
					errs <- err
					return
				}
				start := uint64(rng.Intn(keySpace))
				want := start
				for it.Seek(keys.EncodeUint64(start)); it.Valid() && want < start+20; it.Next() {
					k := keys.DecodeUint64(it.Key())
					if k < want {
						continue // an older version of a key already read
					}
					var r int64
					if _, err := fmt.Sscanf(string(it.Value()), "round-%d", &r); err != nil || k != want || r < lo {
						errs <- fmt.Errorf("iterator at key %d read key %d = %q, want a round >= %d", want, k, it.Value(), lo)
						release()
						return
					}
					want++
				}
				err = it.Err()
				release()
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	for r := 1; r <= 10; r++ {
		flushed = append(flushed, flushRound(t, s, &seq, r, keySpace).Num)
		round.Store(int64(r))
		deadline := time.Now().Add(10 * time.Second)
		for s.readCompactions.Load() < uint64(r) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.WaitForCompactions()
	deleted := 0
	for _, num := range flushed {
		if _, err := os.Stat(TableFileName(s.Dir(), num)); errors.Is(err, fs.ErrNotExist) {
			deleted++
		}
	}
	if n := s.readCompactions.Load(); n == 0 || deleted == 0 {
		t.Fatalf("%d read compactions deleted %d of %d flushed tables", n, deleted, len(flushed))
	}
}
