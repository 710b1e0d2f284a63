package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flodb/internal/core"
	"flodb/internal/keys"
	"flodb/internal/storage"
)

// dirImage reads every file name and its bytes under dir.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = b
	}
	return img
}

// captureStdout runs fn with os.Stdout sent to a file, and returns what
// fn wrote there.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// TestDumpTreeWritesNothing: flodump tree reads a store directory without
// opening it. On a closed store with enough L0 tables to start a
// compaction, every file keeps its name and bytes — no new manifest, no
// CURRENT rewrite, no orphan removal, no compaction — and the tree it
// prints lists those tables. A missing path fails and is not created.
func TestDumpTreeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(core.Config{
		Dir:         dir,
		MemoryBytes: 256 << 10,
		Storage:     storage.Options{L0CompactionTrigger: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < 8000; i++ {
		if err := db.Put(context.Background(), keys.EncodeUint64(uint64(i)*0x9e3779b97f4a7c15), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	tables := 0
	for name := range before {
		if kind, _ := storage.ParseFileName(name); kind == storage.KindTable {
			tables++
		}
	}
	if tables < storage.DefaultL0CompactionTrigger {
		t.Fatalf("the store holds %d tables; want at least %d in L0", tables, storage.DefaultL0CompactionTrigger)
	}

	out, err := captureStdout(t, func() error { return dumpTree(dir) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "L0 (") {
		t.Fatalf("the tree lists no L0:\n%s", out)
	}
	after := dirImage(t, dir)
	if len(after) != len(before) {
		t.Fatalf("dump changed the directory from %d to %d files", len(before), len(after))
	}
	for name, b := range before {
		if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
			t.Fatalf("dump changed %s (present after: %v)", name, ok)
		}
	}

	missing := filepath.Join(t.TempDir(), "typo")
	if _, err := captureStdout(t, func() error { return dumpTree(missing) }); err == nil {
		t.Fatal("dumping a missing path succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("dumping a missing path created it: %v", err)
	}
}
