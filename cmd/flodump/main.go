// Command flodump inspects FloDB on-disk artifacts: the full logical
// contents of a store, the level tree of a store directory, individual
// sstables, and WAL segments.
//
// Usage:
//
//	flodump db <dbdir>          stream every live pair of a store
//	flodump tree <dbdir>        print the level tree from the manifest (read-only)
//	flodump sst <file.sst>      dump an sstable's entries
//	flodump wal <file.wal>      dump a commit-log segment's records
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"flodb"
	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/sstable"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: flodump {db|tree|sst|wal} <path>")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "db":
		err = dumpDB(os.Args[2])
	case "tree":
		err = dumpTree(os.Args[2])
	case "sst":
		err = dumpSST(os.Args[2])
	case "wal":
		err = dumpWAL(os.Args[2])
	default:
		fmt.Fprintf(os.Stderr, "flodump: unknown mode %q\n", os.Args[1])
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flodump: %v\n", err)
		os.Exit(1)
	}
}

// dumpDB streams the whole store through an iterator: memory use stays
// O(1) in the store size, so arbitrarily large databases dump safely.
//
// Opening a store is NOT read-only — flodb.Open creates the directory,
// runs WAL recovery (flushing recovered memtables to new tables), and
// starts a fresh log segment. An inspection tool must leave the store
// byte-identical, so the dump opens a checkpoint-style clone instead:
// storage.CloneDir is the same audited path DB.Checkpoint takes online
// (hard-linked tables, copied WAL tail, fresh manifest), so inspection
// and backup share one code path — and the clone is near-free, since the
// sstables are links, not copies.
func dumpDB(dir string) error {
	if fi, err := os.Stat(dir); err != nil {
		return err
	} else if !fi.IsDir() {
		return fmt.Errorf("%s is not a directory", dir)
	}
	tmp, err := os.MkdirTemp("", "flodump-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	clone := filepath.Join(tmp, "clone")
	if err := storage.CloneDir(dir, clone); err != nil {
		return err
	}
	db, err := flodb.Open(clone)
	if err != nil {
		return err
	}
	defer db.Close()
	it, err := db.NewIterator(context.Background(), nil, nil)
	if err != nil {
		return err
	}
	defer it.Close()
	w := bufio.NewWriter(os.Stdout)
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		fmt.Fprintf(w, "%x = %q\n", it.Key(), truncate(it.Value(), 64))
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("dumped %d live pairs\n", n)
	return nil
}

// dumpTree prints the level tree the manifest records. It only reads
// CURRENT and the manifest (storage.DumpDir), so it neither creates a
// mistyped directory nor writes to one a live store has open.
func dumpTree(dir string) error {
	w := bufio.NewWriter(os.Stdout)
	if err := storage.DumpDir(dir, w); err != nil {
		return err
	}
	return w.Flush()
}

func dumpSST(path string) error {
	r, err := sstable.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	minSeq, maxSeq := r.SeqBounds()
	fmt.Printf("entries=%d seq=[%d..%d]\n", r.Count(), minSeq, maxSeq)
	it := r.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		fmt.Printf("%x @%d %s %q\n", it.Key(), it.Seq(), it.Kind(), truncate(it.Value(), 32))
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Printf("dumped %d entries\n", n)
	return nil
}

func dumpWAL(path string) error {
	records, ops := 0, 0
	err := wal.ReplayAll(path, func(rec []byte) error {
		records++
		if kv.IsBatchRecord(rec) {
			fmt.Printf("batch:\n")
		}
		return kv.ForEachOp(rec, func(kind keys.Kind, key, value []byte) error {
			if kv.IsBatchRecord(rec) {
				fmt.Printf("  ")
			}
			fmt.Printf("%x %s %q\n", key, kindName(kind), truncate(value, 32))
			ops++
			return nil
		})
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d records (%d ops)\n", records, ops)
	return nil
}

func kindName(k keys.Kind) string { return k.String() }

func truncate(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return append(append([]byte{}, b[:n]...), []byte("...")...)
}
