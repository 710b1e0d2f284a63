package storage

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"flodb/internal/keys"
)

// flushPairs writes one L0 table holding the given (key, seq) pairs.
func flushPairs(t *testing.T, s *Store, seqBase uint64, kvs map[string]string) {
	t.Helper()
	var entries []hdrEntry
	for k, v := range kvs {
		entries = append(entries, hdrEntry{k: []byte(k), v: []byte(v)})
	}
	// sort by key for the flush iterator contract
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && keys.Compare(entries[j].k, entries[j-1].k) < 0; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	for i := range entries {
		entries[i].seq = seqBase + uint64(i)
	}
	it := &hdrIter{entries: entries, i: -1}
	if _, err := s.Flush(it, 1, seqBase+uint64(len(entries))); err != nil {
		t.Fatal(err)
	}
}

type hdrEntry struct {
	k, v []byte
	seq  uint64
}

type hdrIter struct {
	entries []hdrEntry
	i       int
}

func (h *hdrIter) SeekToFirst() { h.i = 0 }
func (h *hdrIter) Seek(key []byte) {
	for h.i = 0; h.i < len(h.entries) && keys.Compare(h.entries[h.i].k, key) < 0; h.i++ {
	}
}
func (h *hdrIter) Next()           { h.i++ }
func (h *hdrIter) Valid() bool     { return h.i >= 0 && h.i < len(h.entries) }
func (h *hdrIter) Key() []byte     { return h.entries[h.i].k }
func (h *hdrIter) Seq() uint64     { return h.entries[h.i].seq }
func (h *hdrIter) Kind() keys.Kind { return keys.KindSet }
func (h *hdrIter) Value() []byte   { return h.entries[h.i].v }
func (h *hdrIter) Err() error      { return nil }

func TestStoreCheckpointReopens(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	s, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flushPairs(t, s, 1, map[string]string{"a": "1", "b": "2", "c": "3"})

	ck := filepath.Join(dir, "ck")
	if err := s.Checkpoint(ck); err != nil {
		t.Fatal(err)
	}
	// Additional writes to the source must not appear in the checkpoint.
	flushPairs(t, s, 100, map[string]string{"d": "4"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(ck, Options{})
	if err != nil {
		t.Fatalf("checkpoint does not reopen: %v", err)
	}
	defer r.Close()
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v, _, kind, ok, err := r.Get([]byte(k))
		if err != nil || !ok || kind != keys.KindSet || string(v) != want {
			t.Fatalf("checkpoint Get(%s) = %q %v %v %v", k, v, kind, ok, err)
		}
	}
	if _, _, _, ok, _ := r.Get([]byte("d")); ok {
		t.Fatal("post-checkpoint write leaked into the checkpoint")
	}
}

func TestStoreCheckpointRejectsNonEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "src"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := filepath.Join(dir, "dst")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(dst); err == nil {
		t.Fatal("non-empty destination accepted")
	}
}

func TestCloneDirMatchesSource(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	s, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flushPairs(t, s, 1, map[string]string{"x": "10", "y": "20"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	clone := filepath.Join(dir, "clone")
	if err := CloneDir(src, clone); err != nil {
		t.Fatal(err)
	}
	// The clone opens; the source is untouched (same CURRENT content).
	before, err := os.ReadFile(CurrentFileName(src))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(clone, Options{})
	if err != nil {
		t.Fatalf("clone does not open: %v", err)
	}
	defer r.Close()
	v, _, _, ok, err := r.Get([]byte("y"))
	if err != nil || !ok || string(v) != "20" {
		t.Fatalf("clone Get(y) = %q %v %v", v, ok, err)
	}
	after, err := os.ReadFile(CurrentFileName(src))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("CloneDir mutated the source's CURRENT")
	}
}

func TestVersionGetAtSeqBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Two L0 tables with two versions of the same key.
	it1 := &hdrIter{entries: []hdrEntry{{k: []byte("k"), v: []byte("v-old"), seq: 5}}, i: -1}
	if _, err := s.Flush(it1, 1, 5); err != nil {
		t.Fatal(err)
	}
	it2 := &hdrIter{entries: []hdrEntry{{k: []byte("k"), v: []byte("v-new"), seq: 9}}, i: -1}
	if _, err := s.Flush(it2, 1, 9); err != nil {
		t.Fatal(err)
	}
	v := s.PinVersion()
	defer s.ReleaseVersion(v)
	if val, seq, _, ok, err := s.GetAt(v, []byte("k"), 9); err != nil || !ok || seq != 9 || string(val) != "v-new" {
		t.Fatalf("GetAt(9) = %q seq=%d ok=%v err=%v", val, seq, ok, err)
	}
	if val, seq, _, ok, err := s.GetAt(v, []byte("k"), 7); err != nil || !ok || seq != 5 || string(val) != "v-old" {
		t.Fatalf("GetAt(7) = %q seq=%d ok=%v err=%v", val, seq, ok, err)
	}
	if _, _, _, ok, err := s.GetAt(v, []byte("k"), 3); err != nil || ok {
		t.Fatalf("GetAt(3) should miss, got ok=%v err=%v", ok, err)
	}
}

func TestSnapshotIterFiltersAndCancels(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	it1 := &hdrIter{entries: []hdrEntry{
		{k: []byte("a"), v: []byte("1"), seq: 1},
		{k: []byte("b"), v: []byte("2"), seq: 2},
		{k: []byte("c"), v: []byte("3"), seq: 8},
	}, i: -1}
	if _, err := s.Flush(it1, 1, 8); err != nil {
		t.Fatal(err)
	}
	r := &Front{store: s}
	si, err := r.ViewIterator(context.Background(), ReadView{Seq: 5, Ver: s.PinVersion()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	var got []string
	for ok := si.First(); ok; ok = si.Next() {
		got = append(got, string(si.Key()))
	}
	if err := si.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("seq filter: got %v, want [a b]", got)
	}

	// Cancellation stops a fresh iterator immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	si2, err := r.ViewIterator(ctx, ReadView{Seq: 100, Ver: s.PinVersion()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer si2.Close()
	if si2.First() {
		t.Fatal("canceled iterator yielded a pair")
	}
	if err := si2.Err(); err != context.Canceled {
		t.Fatalf("canceled iterator Err = %v", err)
	}
}
