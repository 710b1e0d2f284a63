package flodb_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flodb"
	"flodb/internal/keys"
)

// bg is the context threaded through every store call in these tests.
var bg = context.Background()

func openPublic(t *testing.T, opts ...flodb.Option) *flodb.DB {
	t.Helper()
	db, err := flodb.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := openPublic(t)
	if err := db.Put(bg, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get(bg, []byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	if err := db.Delete(bg, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get(bg, []byte("k")); found {
		t.Fatal("deleted key visible")
	}
}

func TestPublicAPIClonesInputs(t *testing.T) {
	// The public API must copy key and value, so callers can reuse
	// buffers — the core retains slices.
	db := openPublic(t)
	key := []byte("mutable-key")
	val := []byte("mutable-val")
	db.Put(bg, key, val)
	key[0], val[0] = 'X', 'X'
	v, found, _ := db.Get(bg, []byte("mutable-key"))
	if !found || string(v) != "mutable-val" {
		t.Fatalf("input aliasing leaked into the store: %q %v", v, found)
	}
}

func TestPublicAPIClonesOutputs(t *testing.T) {
	db := openPublic(t)
	db.Put(bg, []byte("k"), []byte("value"))
	v, _, _ := db.Get(bg, []byte("k"))
	v[0] = 'X'
	v2, _, _ := db.Get(bg, []byte("k"))
	if !bytes.Equal(v2, []byte("value")) {
		t.Fatal("mutating a returned value corrupted the store")
	}
}

func TestPublicAPIScan(t *testing.T) {
	db := openPublic(t, flodb.WithMemory(1<<20))
	for i := 0; i < 100; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte(fmt.Sprint(i)))
	}
	pairs, err := db.Scan(bg, keys.EncodeUint64(20), keys.EncodeUint64(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d", len(pairs))
	}
	for i, p := range pairs {
		if keys.DecodeUint64(p.Key) != uint64(20+i) {
			t.Fatalf("pair %d key %x", i, p.Key)
		}
	}
}

func TestPublicAPIOptions(t *testing.T) {
	db := openPublic(t,
		flodb.WithMemory(2<<20),
		flodb.WithDrainThreads(1),
		flodb.WithDurability(flodb.DurabilityNone),
	)
	for i := 0; i < 1000; i++ {
		if err := db.Put(bg, keys.EncodeUint64(uint64(i)*0x9e3779b97f4a7c15), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Puts != 1000 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := flodb.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i)))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := flodb.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 500; i += 37 {
		v, found, err := db2.Get(bg, keys.EncodeUint64(uint64(i)))
		if err != nil || !found || keys.DecodeUint64(v) != uint64(i) {
			t.Fatalf("key %d after reopen: %v %v %v", i, v, found, err)
		}
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	db := openPublic(t, flodb.WithMemory(1<<20), flodb.WithDurability(flodb.DurabilityNone))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys.EncodeUint64(uint64(w*2000+i) * 0x9e3779b97f4a7c15)
				if err := db.Put(bg, k, keys.EncodeUint64(uint64(i))); err != nil {
					panic(err)
				}
				if _, _, err := db.Get(bg, k); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 8000 {
		t.Fatalf("scan found %d of 8000 keys", len(pairs))
	}
}

func TestErrClosedExported(t *testing.T) {
	db, err := flodb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Put(bg, []byte("k"), []byte("v")); !errors.Is(err, flodb.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestFunctionalOptions(t *testing.T) {
	db, err := flodb.Open(t.TempDir(),
		flodb.WithMemory(2<<20),
		flodb.WithDrainThreads(1),
		flodb.WithDurability(flodb.DurabilityNone),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := db.Put(bg, keys.EncodeUint64(uint64(i)*0x9e3779b97f4a7c15), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.Puts != 1000 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLegacyOptionsShim(t *testing.T) {
	// The option list the removed *Options struct used to carry configures
	// a store, and Open with no options at all takes every default.
	db, err := flodb.Open(t.TempDir(), flodb.WithMemory(1<<20), flodb.WithDurability(flodb.DurabilityNone))
	if err != nil {
		t.Fatal(err)
	}
	db.Put(bg, []byte("k"), []byte("v"))
	if v, ok, _ := db.Get(bg, []byte("k")); !ok || string(v) != "v" {
		t.Fatalf("store opened with options broken: %q %v", v, ok)
	}
	db.Close()

	db2, err := flodb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
}

func TestPublicIterator(t *testing.T) {
	db := openPublic(t, flodb.WithMemory(1<<20))
	for i := 0; i < 100; i++ {
		db.Put(bg, keys.EncodeUint64(uint64(i)), []byte(fmt.Sprint(i)))
	}
	it, err := db.NewIterator(bg, keys.EncodeUint64(20), keys.EncodeUint64(30))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if keys.DecodeUint64(it.Key()) != uint64(20+i) || string(it.Value()) != fmt.Sprint(20+i) {
			t.Fatalf("pair %d: %x=%q", i, it.Key(), it.Value())
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 10 {
		t.Fatalf("iterated %d pairs", i)
	}
	if !it.Seek(keys.EncodeUint64(25)) || keys.DecodeUint64(it.Key()) != 25 {
		t.Fatalf("Seek(25) landed on %x", it.Key())
	}
}

func TestPublicWriteBatch(t *testing.T) {
	db := openPublic(t)
	db.Put(bg, []byte("doomed"), []byte("x"))
	b := flodb.NewWriteBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("doomed"))
	if err := db.Apply(bg, b); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := db.Get(bg, []byte("a")); !ok || string(v) != "1" {
		t.Fatalf("a = %q %v", v, ok)
	}
	if v, ok, _ := db.Get(bg, []byte("b")); !ok || string(v) != "2" {
		t.Fatalf("b = %q %v", v, ok)
	}
	if _, ok, _ := db.Get(bg, []byte("doomed")); ok {
		t.Fatal("batched delete ineffective")
	}
	st := db.Stats()
	if st.Batches != 1 || st.BatchOps != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicStoreSatisfiesContract(t *testing.T) {
	// Compile-time in flodb.go; here: the closed-store behavior of the
	// extended surface.
	db, err := flodb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := db.NewIterator(bg, nil, nil); !errors.Is(err, flodb.ErrClosed) {
		t.Fatalf("NewIterator on closed store: %v", err)
	}
	b := flodb.NewWriteBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := db.Apply(bg, b); !errors.Is(err, flodb.ErrClosed) {
		t.Fatalf("Apply on closed store: %v", err)
	}
}

// TestOpenRefusesShardedRoot pins that a directory holding a SHARDS
// manifest (the layout of the removed shard tier, whose data lives in
// shard-NNN subdirectories) is refused rather than shadowed by a fresh
// engine: Open fails with ErrNotSupported and creates nothing.
func TestOpenRefusesShardedRoot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("flodb-shards v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := flodb.Open(dir)
	if err == nil {
		db.Close()
		t.Fatal("Open on a sharded root succeeded")
	}
	if !errors.Is(err, flodb.ErrNotSupported) || !strings.Contains(err.Error(), "SHARDS") {
		t.Fatalf("Open on a sharded root: %v, want ErrNotSupported naming SHARDS", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("Open on a sharded root left %v, want only SHARDS", names)
	}
}
