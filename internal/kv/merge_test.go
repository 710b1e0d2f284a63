package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

var errBoom = errors.New("source failed")

// sliceIter is an in-memory source honoring the Iterator contract. Key and
// Value are copied into buffers the next move overwrites, so a merge that
// reads a source after moving it sees garbage. failAfter > 0 makes the
// failAfter-th positioning call fail with errBoom, and every call after it.
type sliceIter struct {
	pairs      []Pair
	i          int // current pair; len(pairs) when exhausted
	positioned bool
	kbuf, vbuf []byte
	failAfter  int
	calls      int
	err        error
	closes     int
}

func (s *sliceIter) at(i int) bool {
	s.calls++
	if s.err != nil || s.closes > 0 {
		return false
	}
	if s.failAfter > 0 && s.calls >= s.failAfter {
		s.err = errBoom
		s.i = len(s.pairs)
		return false
	}
	s.positioned, s.i = true, i
	if i >= len(s.pairs) {
		return false
	}
	s.kbuf = append(s.kbuf[:0], s.pairs[i].Key...)
	s.vbuf = append(s.vbuf[:0], s.pairs[i].Value...)
	return true
}

func (s *sliceIter) First() bool { return s.at(0) }

func (s *sliceIter) Seek(key []byte) bool {
	return s.at(sort.Search(len(s.pairs), func(i int) bool { return bytes.Compare(s.pairs[i].Key, key) >= 0 }))
}

func (s *sliceIter) Next() bool {
	if !s.positioned {
		return s.First()
	}
	if s.i >= len(s.pairs) {
		return false
	}
	return s.at(s.i + 1)
}

func (s *sliceIter) valid() bool {
	return s.positioned && s.closes == 0 && s.err == nil && s.i < len(s.pairs)
}

func (s *sliceIter) Key() []byte {
	if !s.valid() {
		return nil
	}
	return s.kbuf
}

func (s *sliceIter) Value() []byte {
	if !s.valid() {
		return nil
	}
	return s.vbuf
}

func (s *sliceIter) Err() error { return s.err }

func (s *sliceIter) Close() error {
	s.closes++
	return nil
}

func mkey(k int) []byte { return []byte{byte(k >> 8), byte(k)} }

// versioned encodes a replica's stored copy: version, tombstone flag, payload.
func versioned(ver uint32, tomb bool, payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, ver)
	if tomb {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, payload...)
}

// newestLive is the replicated-store policy the model test drives: the
// highest version wins (the first source on a tie) and a winning
// tombstone skips the key.
func newestLive(vals [][]byte) ([]byte, bool) {
	best := vals[0]
	for _, v := range vals[1:] {
		if binary.BigEndian.Uint32(v) > binary.BigEndian.Uint32(best) {
			best = v
		}
	}
	return best[5:], best[4] == 0
}

// mergeCase is one random merge: its sources and the sorted pairs the
// merge must yield.
type mergeCase struct {
	srcs    []*sliceIter
	resolve func([][]byte) ([]byte, bool)
	model   []Pair
}

func (c *mergeCase) iters() []Iterator {
	its := make([]Iterator, len(c.srcs))
	for i, s := range c.srcs {
		its[i] = s
	}
	return its
}

// firstValue emits the first source's copy: the policy for sources whose
// key sets are disjoint, where every key has one copy.
func firstValue(vals [][]byte) ([]byte, bool) { return vals[0], true }

// disjointCase spreads distinct keys over n sources.
func disjointCase(rng *rand.Rand, n int) *mergeCase {
	c := &mergeCase{srcs: make([]*sliceIter, n), resolve: firstValue}
	for i := range c.srcs {
		c.srcs[i] = &sliceIter{}
	}
	if n == 0 {
		return c
	}
	for k := 0; k < 400; k++ {
		if rng.Intn(3) == 0 {
			continue
		}
		p := Pair{Key: mkey(k), Value: []byte(fmt.Sprintf("v%d", k))}
		s := c.srcs[rng.Intn(n)]
		s.pairs = append(s.pairs, p)
		c.model = append(c.model, p)
	}
	return c
}

// overlapCase gives every source a random subset of a small universe,
// each copy with a random version and a tombstone now and then.
func overlapCase(rng *rand.Rand, n int) *mergeCase {
	c := &mergeCase{srcs: make([]*sliceIter, n), resolve: newestLive}
	for i := range c.srcs {
		c.srcs[i] = &sliceIter{}
	}
	for k := 0; k < 120; k++ {
		var best []byte
		for i, s := range c.srcs {
			if rng.Intn(2) == 0 {
				continue
			}
			v := versioned(uint32(rng.Intn(8)), rng.Intn(4) == 0, fmt.Sprintf("k%d-s%d", k, i))
			s.pairs = append(s.pairs, Pair{Key: mkey(k), Value: v})
			if best == nil || binary.BigEndian.Uint32(v) > binary.BigEndian.Uint32(best) {
				best = v
			}
		}
		if best != nil && best[4] == 0 {
			c.model = append(c.model, Pair{Key: mkey(k), Value: best[5:]})
		}
	}
	return c
}

// checkAt asserts the merge's position against model[i] (i == len(model)
// meaning exhausted).
func checkAt(t *testing.T, what string, it Iterator, ok bool, model []Pair, i int) {
	t.Helper()
	if i >= len(model) {
		if ok || it.Key() != nil || it.Value() != nil {
			t.Fatalf("%s: positioned at %x, want exhausted", what, it.Key())
		}
		return
	}
	if !ok || !bytes.Equal(it.Key(), model[i].Key) || !bytes.Equal(it.Value(), model[i].Value) {
		t.Fatalf("%s: at %x=%q (ok %v), want %x=%q", what, it.Key(), it.Value(), ok, model[i].Key, model[i].Value)
	}
}

func seekIndex(model []Pair, key []byte) int {
	return sort.Search(len(model), func(i int) bool { return bytes.Compare(model[i].Key, key) >= 0 })
}

// TestMergeModel drives random merges of 0–6 sources — disjoint, and
// overlapping under a version-picking, tombstone-skipping policy —
// through First, forward and backward Seeks and Next past exhaustion,
// comparing every position with a sorted model.
func TestMergeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		n := rng.Intn(7)
		var c *mergeCase
		if round%2 == 0 {
			c = disjointCase(rng, n)
		} else {
			c = overlapCase(rng, n)
		}
		name := fmt.Sprintf("round %d (%d sources, overlap %v)", round, n, round%2 == 1)
		it := Merge(c.iters(), c.resolve)
		if it.Key() != nil || it.Value() != nil {
			t.Fatalf("%s: Key/Value set before positioning", name)
		}
		// Next on a fresh merge is First.
		checkAt(t, name+" Next-as-First", it, it.Next(), c.model, 0)
		for op := 0; op < 40; op++ {
			i := 0
			var ok bool
			switch rng.Intn(4) {
			case 0:
				ok = it.First()
			case 1:
				ok = it.Seek(nil)
			default: // forward or backward, present or absent
				k := mkey(rng.Intn(450))
				ok, i = it.Seek(k), seekIndex(c.model, k)
			}
			checkAt(t, fmt.Sprintf("%s op %d", name, op), it, ok, c.model, i)
			// Steps may run past the end, where Next must stay false.
			for steps := rng.Intn(30); steps > 0; steps-- {
				if i < len(c.model) {
					i++
				}
				checkAt(t, fmt.Sprintf("%s op %d Next", name, op), it, it.Next(), c.model, i)
			}
		}
		// Drive to exhaustion and past it.
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			checkAt(t, name+" full pass", it, true, c.model, i)
			i++
		}
		if i != len(c.model) {
			t.Fatalf("%s: full pass %d pairs, want %d", name, i, len(c.model))
		}
		for k := 0; k < 3; k++ {
			checkAt(t, name+" Next after exhaustion", it, it.Next(), c.model, len(c.model))
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeSourceFailsMidStream: the first source error invalidates the
// merge — Err reports it and every positioning call, First and Seek
// included, returns false with Key and Value nil.
func TestMergeSourceFailsMidStream(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		rng := rand.New(rand.NewSource(2))
		var c *mergeCase
		if overlap {
			c = overlapCase(rng, 3)
		} else {
			c = disjointCase(rng, 3)
		}
		c.srcs[1].failAfter = 20
		it := Merge(c.iters(), c.resolve)
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if !errors.Is(it.Err(), errBoom) {
			t.Fatalf("overlap %v: Err = %v after %d pairs", overlap, it.Err(), n)
		}
		if n >= len(c.model) {
			t.Fatalf("overlap %v: merge ran to completion (%d pairs) past a failed source", overlap, n)
		}
		if it.First() || it.Seek(nil) || it.Seek(mkey(200)) || it.Next() || it.Key() != nil || it.Value() != nil {
			t.Fatalf("overlap %v: failed merge repositioned", overlap)
		}
		if !errors.Is(it.Err(), errBoom) {
			t.Fatalf("overlap %v: Err lost: %v", overlap, it.Err())
		}
		it.Close()
	}
}

// TestMergeClose: Close closes each source once; calls after it return
// false and a second Close is a no-op.
func TestMergeClose(t *testing.T) {
	c := disjointCase(rand.New(rand.NewSource(3)), 4)
	it := Merge(c.iters(), c.resolve)
	if !it.First() {
		t.Fatal("empty merge")
	}
	for k := 0; k < 2; k++ {
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range c.srcs {
		if s.closes != 1 {
			t.Fatalf("source %d closed %d times", i, s.closes)
		}
	}
	if it.First() || it.Next() || it.Seek(nil) || it.Key() != nil || it.Value() != nil || it.Err() != nil {
		t.Fatal("closed merge repositioned or reported an error")
	}
}

// TestCollect: Collect returns copies that outlive the iterator, closes
// it, and drops the pairs on an error.
func TestCollect(t *testing.T) {
	c := disjointCase(rand.New(rand.NewSource(4)), 3)
	pairs, err := Collect(Merge(c.iters(), c.resolve))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(c.model) {
		t.Fatalf("collected %d pairs, want %d", len(pairs), len(c.model))
	}
	for i, p := range pairs {
		if !bytes.Equal(p.Key, c.model[i].Key) || !bytes.Equal(p.Value, c.model[i].Value) {
			t.Fatalf("pair %d: %x=%q, want %x=%q", i, p.Key, p.Value, c.model[i].Key, c.model[i].Value)
		}
	}
	for i, s := range c.srcs {
		if s.closes != 1 {
			t.Fatalf("source %d closed %d times", i, s.closes)
		}
	}
	failing := &sliceIter{pairs: c.model, failAfter: 5}
	if pairs, err := Collect(failing); !errors.Is(err, errBoom) || pairs != nil || failing.closes != 1 {
		t.Fatalf("Collect over a failing source = %d pairs, %v, %d closes", len(pairs), err, failing.closes)
	}
}

// replicaCase gives n sources the keys [0, keys), each key on two
// neighbouring sources with different versions, as a ring's replicas
// hold them.
func replicaCase(n, keys int) *mergeCase {
	c := &mergeCase{srcs: make([]*sliceIter, n), resolve: newestLive}
	for i := range c.srcs {
		c.srcs[i] = &sliceIter{}
	}
	for k := 0; k < keys; k++ {
		a, b := c.srcs[k%n], c.srcs[(k+1)%n]
		a.pairs = append(a.pairs, Pair{Key: mkey(k), Value: versioned(1, false, "old")})
		b.pairs = append(b.pairs, Pair{Key: mkey(k), Value: versioned(2, false, "new")})
	}
	return c
}

// open rewinds c's sources and merges them.
func (c *mergeCase) open() Iterator {
	for _, s := range c.srcs {
		s.i, s.positioned, s.calls, s.closes = 0, false, 0, 0
	}
	return Merge(c.iters(), c.resolve)
}

// pass opens a merge over c's sources, seeks to key 100, reads up to n
// pairs and closes it, returning how many it read.
func (c *mergeCase) pass(tb testing.TB, n int) int {
	it := c.open()
	read := 0
	for ok := it.Seek(mkey(100)); ok && read < n; ok = it.Next() {
		read++
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		tb.Fatal(err)
	}
	return read
}

// TestMergeStartsNoGoroutine: the merge runs on the caller's goroutine —
// opening it, seeking and stepping start nothing.
func TestMergeStartsNoGoroutine(t *testing.T) {
	c := replicaCase(4, 4000)
	c.pass(t, 100)
	before := runtime.NumGoroutine()
	it := c.open()
	defer it.Close()
	ok := it.Seek(mkey(100))
	for i := 0; ok && i < 100; i++ {
		ok = it.Next()
	}
	if !ok {
		t.Fatal("merge ran dry before 100 pairs")
	}
	if during := runtime.NumGoroutine(); during != before {
		t.Fatalf("an open 4-source merge runs %d goroutines beside the caller's %d", during-before, before)
	}
}

// TestMergeAllocatesNothingPerPair pins the merge's cost: open + Seek +
// Next + Close allocates the merge's own state once, and nothing per pair
// — a 2000-pair pass allocates exactly what a 100-pair pass does.
func TestMergeAllocatesNothingPerPair(t *testing.T) {
	c := replicaCase(4, 4000)
	for _, n := range []int{100, 2000} {
		if got := c.pass(t, n); got != n {
			t.Fatalf("pass read %d pairs, want %d", got, n)
		}
	}
	short := testing.AllocsPerRun(50, func() { c.pass(t, 100) })
	long := testing.AllocsPerRun(50, func() { c.pass(t, 2000) })
	if long != short {
		t.Errorf("open + Seek + Next + Close: %.1f allocations over 100 pairs, %.1f over 2000; want equal", short, long)
	}
}
