package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/kv"
	"flodb/internal/workload"
)

// TestStressBufferReuseInsertIterate regression-tests the input-ownership
// contract under the benchmark harness's exact usage: every writer reuses
// ONE key buffer and ONE value buffer across all its operations, racing
// iterator chunks and persists on a tiny memory component.
//
// Before Put/Delete cloned their inputs, the Membuffer and skiplist
// retained the reused buffers, collapsing distinct keys into one mutating
// node and corrupting skiplist order — surfacing as "sstable:
// out-of-order add" from the persist thread under exactly this workload.
func TestStressBufferReuseInsertIterate(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), MemoryBytes: 128 << 10, Durability: kv.DurabilityNone}
	cfg.Storage.BaseLevelBytes = 512 << 10
	cfg.Storage.TargetFileSize = 256 << 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			gen := workload.NewUniform(1 << 18)
			keyBuf := make([]byte, workload.DefaultKeySize)
			var valBuf []byte
			for i := 0; !stop.Load(); i++ {
				key := gen.NextKey(rng, keyBuf)
				if i%20 == 19 { // ~5% iterator scans, as in the Fig 13 mix
					it, err := db.NewIterator(bg, key, nil)
					if err != nil {
						errCh <- err
						return
					}
					for n, ok := 0, it.First(); ok && n < 100; n, ok = n+1, it.Next() {
					}
					err = it.Err()
					it.Close()
					if err != nil {
						errCh <- err
						return
					}
					continue
				}
				valBuf = workload.Value(valBuf, workload.DefaultValueSize, uint64(i))
				if err := db.Put(bg, key, valBuf); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPutCopiesReusedBuffers pins the ownership contract directly: keys
// written through one reused buffer must all be distinct in the store.
func TestPutCopiesReusedBuffers(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	buf := make([]byte, 8)
	const n = 1000
	for i := uint64(0); i < n; i++ {
		workload.PutUint64(buf, i)
		if err := db.Put(bg, buf, buf); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := db.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Fatalf("%d distinct keys through one buffer -> %d stored", n, len(pairs))
	}
}
