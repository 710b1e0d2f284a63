package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// FuzzWALReader feeds arbitrary bytes to the log reader and the record
// decoder recovery runs on what it returns. The contract: records or an
// error — never a panic, and never a buffer sized from a length the input
// merely claims.
func FuzzWALReader(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, err := Create(path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range gatherCases() {
		if len(c.value) > 128 { // the engine minimizes every input it keeps
			c.value = c.value[:128]
		}
		if _, err := w.AppendRecord(c.kind, c.key, c.value); err != nil {
			f.Fatal(err)
		}
	}
	var b kv.Batch
	b.Put([]byte("a"), []byte("1"))
	b.Delete([]byte("b"))
	if _, err := w.Append(kv.EncodeBatchRecord(&b)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3]) // a torn tail
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Reader{br: bufio.NewReader(bytes.NewReader(data))}
		for n := 0; ; n++ {
			rec, err := r.Next()
			// The buffer grows with bytes read: at most twice the input,
			// or one chunk.
			if c := cap(r.buf); c > 2*len(data)+readChunk {
				t.Fatalf("a %d-byte log grew a %d-byte buffer", len(data), c)
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record %d: unexpected error %v", n, err)
				}
				return
			}
			if n*headerSize > len(data) {
				t.Fatalf("read %d records from %d bytes", n, len(data))
			}
			kv.ForEachOp(rec, func(keys.Kind, []byte, []byte) error { return nil })
		}
	})
}
