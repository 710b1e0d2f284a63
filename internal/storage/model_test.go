package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"flodb/internal/keys"
)

// TestStorageModelCheck drives random flush batches through the store
// (with aggressive compaction settings) and verifies Get against an
// oracle after every flush, plus a full iterator sweep at the end. This
// exercises L0 shadowing, level search, tombstone dropping and the
// merging iterators against ground truth.
func TestStorageModelCheck(t *testing.T) {
	s := openTestStore(t, Options{
		L0CompactionTrigger: 2,
		BaseLevelBytes:      32 << 10,
		TargetFileSize:      8 << 10,
	})
	oracle := map[string]memEntry{}
	rng := rand.New(rand.NewSource(77))
	seq := uint64(0)
	const keySpace = 400

	for round := 0; round < 25; round++ {
		batch := map[string]memEntry{}
		n := 20 + rng.Intn(100)
		for i := 0; i < n; i++ {
			seq++
			k := keys.EncodeUint64(uint64(rng.Intn(keySpace)))
			e := memEntry{key: k, seq: seq, kind: keys.KindSet, value: []byte(fmt.Sprintf("r%d-%d", round, i))}
			if rng.Intn(5) == 0 {
				e.kind = keys.KindDelete
				e.value = nil
			}
			batch[string(k)] = e // newest in batch wins
		}
		var entries []memEntry
		for _, e := range batch {
			entries = append(entries, e)
			oracle[string(e.key)] = e
		}
		if _, err := s.Flush(&memIter{entries: sortedEntries(entries)}, uint64(round+2), seq); err != nil {
			t.Fatal(err)
		}
		// Verify a sample against the oracle mid-stream.
		for i := 0; i < 50; i++ {
			k := keys.EncodeUint64(uint64(rng.Intn(keySpace)))
			v, _, kind, ok, err := s.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			want, exists := oracle[string(k)]
			switch {
			case !exists:
				if ok {
					t.Fatalf("round %d: phantom key %x", round, k)
				}
			case want.kind == keys.KindDelete:
				if ok && kind != keys.KindDelete {
					t.Fatalf("round %d: deleted key %x alive", round, k)
				}
			default:
				if !ok || kind != keys.KindSet || string(v) != string(want.value) {
					t.Fatalf("round %d: key %x = %q/%v/%v, want %q", round, k, v, kind, ok, want.value)
				}
			}
		}
	}
	s.WaitForCompactions()

	// Full iterator: newest version per user key must match the oracle;
	// deleted keys may appear only as tombstones (or not at all if the
	// compactor dropped them).
	it, release, err := s.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var lastKey []byte
	live := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if lastKey != nil && keys.Equal(lastKey, it.Key()) {
			continue // older version
		}
		lastKey = append(lastKey[:0], it.Key()...)
		want, exists := oracle[string(it.Key())]
		if !exists {
			t.Fatalf("iterator surfaced unknown key %x", it.Key())
		}
		if it.Kind() == keys.KindDelete {
			if want.kind != keys.KindDelete {
				t.Fatalf("live key %x shadowed by tombstone", it.Key())
			}
			continue
		}
		if want.kind == keys.KindDelete {
			t.Fatalf("deleted key %x alive in iterator", it.Key())
		}
		if string(it.Value()) != string(want.value) {
			t.Fatalf("iterator %x = %q, want %q", it.Key(), it.Value(), want.value)
		}
		live++
	}
	wantLive := 0
	for _, e := range oracle {
		if e.kind == keys.KindSet {
			wantLive++
		}
	}
	if live != wantLive {
		t.Fatalf("iterator found %d live keys, oracle has %d", live, wantLive)
	}
	m := s.Metrics()
	if m.Compactions == 0 {
		t.Fatal("model check never compacted; tighten the options")
	}
	t.Logf("model check done: %d flushes, %d compactions, levels %v", m.Flushes, m.Compactions, m.FilesPerLevel)
}

// TestConcurrentReadsDuringCompaction hammers Get from several goroutines
// while flushes and compactions churn the version tree underneath and
// delete the tables they made obsolete. Gets read the current version with
// no reference, so this is the test of the grace period deleteTables waits
// out: with no row cache and a four-reader table cache, almost every probe
// opens its table, and a table unlinked under a Get that still holds the
// old version fails the open. Every Get must succeed with a value from a
// round no older than the last flush finished before it began and no newer
// than the last one started before it returned.
func TestConcurrentReadsDuringCompaction(t *testing.T) {
	s := openTestStore(t, Options{
		L0CompactionTrigger: 2,
		BaseLevelBytes:      16 << 10,
		TargetFileSize:      8 << 10,
		CompactionThreads:   2,
		BlockCacheBytes:     -1,
		TableCacheCapacity:  4,
	})
	const keySpace = 200
	var started, flushed atomic.Int64
	var flushedTables []uint64
	seq := uint64(0)
	writeRound := func(round int) {
		var entries []memEntry
		for i := 0; i < keySpace; i++ {
			seq++
			entries = append(entries, memEntry{
				key: keys.EncodeUint64(uint64(i)), seq: seq, kind: keys.KindSet,
				value: []byte(fmt.Sprintf("round-%d", round)),
			})
		}
		started.Store(int64(round))
		fm, err := s.Flush(&memIter{entries: sortedEntries(entries)}, uint64(round+2), seq)
		if err != nil {
			t.Fatal(err)
		}
		flushedTables = append(flushedTables, fm.Num)
		flushed.Store(int64(round))
	}
	writeRound(0)

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				k := keys.EncodeUint64(uint64(rng.Intn(keySpace)))
				lo := flushed.Load()
				v, _, _, ok, err := s.Get(k)
				hi := started.Load()
				if err != nil {
					errs <- fmt.Errorf("Get(%x): %w", k, err)
					return
				}
				var round int64
				if _, scanErr := fmt.Sscanf(string(v), "round-%d", &round); !ok || scanErr != nil || round < lo || round > hi {
					errs <- fmt.Errorf("Get(%x) = %q ok=%v, want a round in [%d, %d]", k, v, ok, lo, hi)
					return
				}
			}
		}(g)
	}
	for round := 1; round <= 40; round++ {
		writeRound(round)
	}
	close(stop)
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s.WaitForCompactions()
	deleted := 0
	for _, num := range flushedTables {
		if _, err := os.Stat(TableFileName(s.Dir(), num)); errors.Is(err, fs.ErrNotExist) {
			deleted++
		}
	}
	if m := s.Metrics(); m.Compactions == 0 || deleted == 0 {
		t.Fatalf("%d compactions deleted %d of %d flushed tables: nothing was deleted under the readers", m.Compactions, deleted, len(flushedTables))
	}
}
