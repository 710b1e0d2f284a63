package skiplist

import (
	"fmt"
	"sync"
	"testing"

	"flodb/internal/keys"
)

// chainLen walks a key's version chain and returns its length (the
// current entry plus every retained predecessor).
func chainLen(l *List, key []byte) int {
	e, ok := l.Get(key)
	if !ok {
		return 0
	}
	n := 0
	for ; e != nil; e = e.PrevVersion() {
		n++
	}
	return n
}

func TestRetentionOffDestroysOldVersions(t *testing.T) {
	l := New()
	// No Retention attached: in-place updates must stay single-versioned.
	l.Insert([]byte("k"), entry("v1", 1))
	l.Insert([]byte("k"), entry("v2", 2))
	if n := chainLen(l, []byte("k")); n != 1 {
		t.Fatalf("chain length without retention = %d, want 1", n)
	}
	// Attached but empty bounds: same thing.
	var r Retention
	l.SetRetention(&r)
	l.Insert([]byte("k"), entry("v3", 3))
	if n := chainLen(l, []byte("k")); n != 1 {
		t.Fatalf("chain length with empty bounds = %d, want 1", n)
	}
}

func TestGetAtResolvesPinnedVersion(t *testing.T) {
	l := New()
	var r Retention
	l.SetRetention(&r)
	l.Insert([]byte("k"), entry("v1", 1))

	r.Set([]uint64{1}) // a snapshot pinned at seq 1
	l.Insert([]byte("k"), entry("v2", 5))
	r.Set([]uint64{1, 7}) // a second snapshot pinned at seq 7
	l.Insert([]byte("k"), entry("v3", 9))

	if e, ok := l.GetAt([]byte("k"), 1); !ok || string(e.Value) != "v1" || e.Seq != 1 {
		t.Fatalf("GetAt(1) = %+v %v, want v1@1", e, ok)
	}
	if e, ok := l.GetAt([]byte("k"), 7); !ok || string(e.Value) != "v2" {
		t.Fatalf("GetAt(7) = %+v %v, want v2 (newest <= 7)", e, ok)
	}
	if e, ok := l.Get([]byte("k")); !ok || string(e.Value) != "v3" {
		t.Fatalf("live Get = %+v %v, want v3", e, ok)
	}
	// A bound older than every version misses.
	if _, ok := l.GetAt([]byte("k"), 0); ok {
		t.Fatal("GetAt(0) should miss: no version at or below the bound")
	}
	// A key never written misses at any bound.
	if _, ok := l.GetAt([]byte("absent"), 9); ok {
		t.Fatal("GetAt(absent) should miss")
	}
}

func TestRetentionChainBoundedByBoundCount(t *testing.T) {
	l := New()
	var r Retention
	l.SetRetention(&r)
	l.Insert([]byte("k"), entry("v0", 10))
	r.Set([]uint64{10, 20}) // two active snapshots

	// Hammer one key with 100 overwrites: however hot, the chain must
	// stay within bounds+1 entries (one per bound plus the live entry).
	for i := uint64(0); i < 100; i++ {
		l.Insert([]byte("k"), entry(fmt.Sprintf("v%d", i+1), 30+i))
	}
	if n := chainLen(l, []byte("k")); n > 3 {
		t.Fatalf("chain length with 2 bounds = %d, want <= 3", n)
	}
	// Both pinned reads still resolve to the version their bound needs.
	if e, ok := l.GetAt([]byte("k"), 10); !ok || string(e.Value) != "v0" {
		t.Fatalf("GetAt(10) = %+v %v, want v0", e, ok)
	}
	if e, ok := l.GetAt([]byte("k"), 20); !ok || string(e.Value) != "v0" {
		t.Fatalf("GetAt(20) = %+v %v, want v0 (newest <= 20)", e, ok)
	}

	// Dropping the bounds prunes on the next overwrite.
	r.Set(nil)
	l.Insert([]byte("k"), entry("final", 1000))
	if n := chainLen(l, []byte("k")); n != 1 {
		t.Fatalf("chain length after bounds dropped = %d, want 1", n)
	}
}

func TestRetentionSharedVersionAcrossBounds(t *testing.T) {
	l := New()
	var r Retention
	l.SetRetention(&r)
	l.Insert([]byte("k"), entry("old", 5))
	// Two bounds that both resolve to the same version must keep ONE
	// copy, not two.
	r.Set([]uint64{6, 8})
	l.Insert([]byte("k"), entry("new", 9))
	if n := chainLen(l, []byte("k")); n != 2 {
		t.Fatalf("chain length = %d, want 2 (live + one shared pinned)", n)
	}
	for _, b := range []uint64{6, 8} {
		if e, ok := l.GetAt([]byte("k"), b); !ok || string(e.Value) != "old" {
			t.Fatalf("GetAt(%d) = %+v %v, want old", b, e, ok)
		}
	}
}

func TestRetentionCreateSeqSurvivesChaining(t *testing.T) {
	l := New()
	var r Retention
	l.SetRetention(&r)
	l.Insert([]byte("k"), entry("v1", 3))
	r.Set([]uint64{3})
	l.Insert([]byte("k"), entry("v2", 7))
	e, ok := l.Get([]byte("k"))
	if !ok || e.CreateSeq != 3 {
		t.Fatalf("CreateSeq = %d, want 3 (first insert's seq)", e.CreateSeq)
	}
}

func TestRetentionConcurrentOverwritesAndPinnedReads(t *testing.T) {
	l := New()
	var r Retention
	l.SetRetention(&r)
	const nKeys = 64
	for i := 0; i < nKeys; i++ {
		l.Insert(keys.EncodeUint64(uint64(i)), entry("base", 1))
	}
	r.Set([]uint64{1})

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers overwrite every key with monotonically larger seqs.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			seq := uint64(100 + w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < nKeys; i++ {
					l.Insert(keys.EncodeUint64(uint64(i)), entry("hot", seq))
					seq += 8
				}
			}
		}(w)
	}
	// Readers at the pinned bound must always see the base version,
	// whatever the writers are doing to the live entries.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 200; round++ {
				for i := 0; i < nKeys; i++ {
					e, ok := l.GetAt(keys.EncodeUint64(uint64(i)), 1)
					if !ok || string(e.Value) != "base" {
						t.Errorf("pinned read saw %v ok=%v, want base", e, ok)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestUpdateSeqOrder: an update is ordered by sequence number, not by
// arrival. A late older version never replaces the resident one; it is
// chained beneath it when an active bound can observe it (bound >= its
// seq and below the resident's) and dropped otherwise. An equal seq keeps
// the last-arrival rule, so callers that number nothing behave as before.
// Every case runs through Insert and through MultiInsert.
func TestUpdateSeqOrder(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []uint64
		resSeq  uint64 // the resident version, inserted first
		lateSeq uint64 // the version arriving second
		live    string // what Get returns afterwards
		chain   int    // versions reachable from the live entry
		at      uint64 // a bound to read at (0: none)
		atValue string // what GetAt(at) returns
	}{
		{name: "older without a bound is dropped", resSeq: 9, lateSeq: 5, live: "res", chain: 1},
		{name: "older below every bound is dropped", bounds: []uint64{3}, resSeq: 9, lateSeq: 5, live: "res", chain: 1, at: 3},
		{name: "older above every bound is dropped", bounds: []uint64{9, 12}, resSeq: 9, lateSeq: 5, live: "res", chain: 1, at: 9, atValue: "res"},
		{name: "older a bound needs is chained", bounds: []uint64{7}, resSeq: 9, lateSeq: 5, live: "res", chain: 2, at: 7, atValue: "late"},
		{name: "older at the bound is chained", bounds: []uint64{5}, resSeq: 9, lateSeq: 5, live: "res", chain: 2, at: 5, atValue: "late"},
		{name: "equal seq replaces", resSeq: 9, lateSeq: 9, live: "late", chain: 1},
		{name: "equal seq replaces under a bound", bounds: []uint64{9}, resSeq: 9, lateSeq: 9, live: "late", chain: 1, at: 9, atValue: "late"},
		{name: "unnumbered replaces", resSeq: 0, lateSeq: 0, live: "late", chain: 1},
		{name: "newer replaces", resSeq: 5, lateSeq: 9, live: "late", chain: 1},
		{name: "newer chains what a bound needs", bounds: []uint64{7}, resSeq: 5, lateSeq: 9, live: "late", chain: 2, at: 7, atValue: "res"},
	}
	for _, tc := range cases {
		for _, multi := range []bool{false, true} {
			name := tc.name + "/insert"
			if multi {
				name = tc.name + "/multi"
			}
			t.Run(name, func(t *testing.T) {
				l := New()
				var r Retention
				l.SetRetention(&r)
				k := []byte("k")
				l.Insert(k, entry("res", tc.resSeq))
				r.Set(tc.bounds)
				bytesBefore, updatesBefore := l.ApproxBytes(), l.Updates()
				if late := entry("late", tc.lateSeq); multi {
					l.MultiInsert([]KV{{Key: []byte("a"), Entry: entry("a", 1)}, {Key: k, Entry: late}})
				} else {
					l.Insert(k, late)
				}
				e, ok := l.Get(k)
				if !ok || string(e.Value) != tc.live {
					t.Fatalf("Get = %+v %v, want %s", e, ok, tc.live)
				}
				if n := chainLen(l, k); n != tc.chain {
					t.Fatalf("chain length %d, want %d", n, tc.chain)
				}
				if tc.live == "res" {
					if e.Seq != tc.resSeq || l.Updates() != updatesBefore || (!multi && l.ApproxBytes() != bytesBefore) {
						t.Fatalf("a late older version changed the resident entry: seq %d, updates %d -> %d, bytes %d -> %d",
							e.Seq, updatesBefore, l.Updates(), bytesBefore, l.ApproxBytes())
					}
				}
				if tc.at != 0 {
					got, ok := l.GetAt(k, tc.at)
					if tc.atValue == "" {
						if ok {
							t.Fatalf("GetAt(%d) = %q, want a miss", tc.at, got.Value)
						}
					} else if !ok || string(got.Value) != tc.atValue {
						t.Fatalf("GetAt(%d) = %+v %v, want %s", tc.at, got, ok, tc.atValue)
					}
				}
			})
		}
	}
}

// TestUpdateSeqOrderInBatchDuplicates: within one MultiInsert batch the
// higher seq wins, whichever element comes later.
func TestUpdateSeqOrderInBatchDuplicates(t *testing.T) {
	l := New()
	l.MultiInsert([]KV{
		{Key: []byte("k"), Entry: entry("newer", 8)},
		{Key: []byte("k"), Entry: entry("older", 3)},
	})
	if e, ok := l.Get([]byte("k")); !ok || string(e.Value) != "newer" {
		t.Fatalf("Get = %+v %v, want newer", e, ok)
	}
}

// TestUpdateSeqOrderConcurrentReaders races late older versions, chained
// for a bound, against newer overwrites of the same keys and against
// readers: readers at the bound must always find a version at or below
// it once the first late version is in, the live entry must only move
// forward, and the final state must hold, per key, the newest version and
// the late one beneath it. Run under -race it also checks that chaining
// publishes no half-built entry.
func TestUpdateSeqOrderConcurrentReaders(t *testing.T) {
	l := New()
	var r Retention
	l.SetRetention(&r)
	const nKeys, rounds = 32, 300
	const bound = 1000
	for i := 0; i < nKeys; i++ {
		l.Insert(keys.EncodeUint64(uint64(i)), entry("base", 1))
	}
	r.Set([]uint64{bound})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Newer writers: monotonically larger seqs above the bound.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := uint64(bound + 1 + w)
			for round := 0; round < rounds; round++ {
				for i := 0; i < nKeys; i++ {
					l.Insert(keys.EncodeUint64(uint64(i)), &Entry{Value: keys.EncodeUint64(seq), Seq: seq})
					seq += 2
				}
			}
		}(w)
	}
	// The late writer: one older version per key, numbered below the bound,
	// through MultiInsert as a drain would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var batch []KV
		for i := 0; i < nKeys; i++ {
			batch = append(batch, KV{Key: keys.EncodeUint64(uint64(i)), Entry: &Entry{Value: []byte("late"), Seq: bound - 1}})
		}
		l.MultiInsert(batch)
	}()
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make([]uint64, nKeys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < nKeys; i++ {
					k := keys.EncodeUint64(uint64(i))
					e, ok := l.GetAt(k, bound)
					if !ok || (string(e.Value) != "base" && string(e.Value) != "late") {
						t.Errorf("GetAt(bound) = %+v %v", e, ok)
						return
					}
					live, _ := l.Get(k)
					if live.Seq < last[i] {
						t.Errorf("key %d: live seq went back %d -> %d", i, last[i], live.Seq)
						return
					}
					last[i] = live.Seq
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i := 0; i < nKeys; i++ {
		k := keys.EncodeUint64(uint64(i))
		live, _ := l.Get(k)
		if live.Seq <= bound || keys.DecodeUint64(live.Value) != live.Seq {
			t.Fatalf("key %d: live entry %+v is not a newer write", i, live)
		}
		if e, ok := l.GetAt(k, bound); !ok || string(e.Value) != "late" {
			t.Fatalf("key %d: GetAt(bound) = %+v %v, want the late version", i, e, ok)
		}
	}
}
