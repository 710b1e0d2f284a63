package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// TestModelCheckSequential runs a long random operation sequence against
// both FloDB and an in-memory oracle map, comparing every read and every
// scan. Sequential execution makes the expected state exact, so this
// catches any divergence across the membuffer/memtable/disk boundaries,
// tombstone handling, and drain races with a single client.
func TestModelCheckSequential(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 64 << 10 // tiny: constant drains and persists
	db := openTestDB(t, cfg)

	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(12345))
	const ops = 30000
	const keySpace = 700

	randKey := func() []byte { return spreadKey(uint64(rng.Intn(keySpace))) }

	for i := 0; i < ops; i++ {
		switch rng.Intn(12) {
		case 10, 11: // atomic write batch
			b := kv.NewBatch()
			for n := 1 + rng.Intn(8); n > 0; n-- {
				k := randKey()
				if rng.Intn(5) == 0 {
					b.Delete(k)
					delete(oracle, string(k))
				} else {
					v := fmt.Sprintf("b%d-%d", i, n)
					b.Put(k, []byte(v))
					oracle[string(k)] = v
				}
			}
			if err := db.Apply(bg, b); err != nil {
				t.Fatal(err)
			}
		case 0, 1, 2, 3: // put
			k := randKey()
			v := fmt.Sprintf("v%d", i)
			if err := db.Put(bg, k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			oracle[string(k)] = v
		case 4: // delete
			k := randKey()
			if err := db.Delete(bg, k); err != nil {
				t.Fatal(err)
			}
			delete(oracle, string(k))
		case 5, 6, 7, 8: // get
			k := randKey()
			v, found, err := db.Get(bg, k)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := oracle[string(k)]
			if found != ok {
				t.Fatalf("op %d: Get(%x) found=%v oracle=%v", i, k, found, ok)
			}
			if found && string(v) != want {
				t.Fatalf("op %d: Get(%x) = %q, oracle %q", i, k, v, want)
			}
		case 9: // occasionally scan everything and compare, both ways
			if i%1000 != 999 {
				continue
			}
			pairs, err := db.Scan(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != len(oracle) {
				t.Fatalf("op %d: scan %d pairs, oracle %d", i, len(pairs), len(oracle))
			}
			for _, p := range pairs {
				if oracle[string(p.Key)] != string(p.Value) {
					t.Fatalf("op %d: scan %x = %q, oracle %q", i, p.Key, p.Value, oracle[string(p.Key)])
				}
			}
			// The streaming iterator must agree with Scan pair for pair.
			it, err := db.NewIterator(bg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			j := 0
			for ok := it.First(); ok; ok = it.Next() {
				if j >= len(pairs) || !bytes.Equal(it.Key(), pairs[j].Key) || !bytes.Equal(it.Value(), pairs[j].Value) {
					t.Fatalf("op %d: iterator diverged from scan at %d", i, j)
				}
				j++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			if j != len(pairs) {
				t.Fatalf("op %d: iterator %d pairs, scan %d", i, j, len(pairs))
			}
		}
	}
	// Final full verification.
	for k, want := range oracle {
		v, found, err := db.Get(bg, []byte(k))
		if err != nil || !found || string(v) != want {
			t.Fatalf("final: key %x = %q/%v/%v, want %q", k, v, found, err, want)
		}
	}
	t.Logf("model check: %d ops, final size %d, drained %d, persists %d", ops, len(oracle), db.stats.drainedEntries.Load(), db.stats.persists.Load())
}

// TestModelCheckAcrossRestart extends the model check across a clean
// restart: the oracle must match after reopen.
func TestModelCheckAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemoryBytes: 64 << 10}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(999))
	for i := 0; i < 5000; i++ {
		k := spreadKey(uint64(rng.Intn(300)))
		if rng.Intn(5) == 0 {
			db.Delete(bg, k)
			delete(oracle, string(k))
		} else {
			v := fmt.Sprintf("r%d", i)
			db.Put(bg, k, []byte(v))
			oracle[string(k)] = v
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	pairs, err := db2.Scan(bg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(oracle) {
		t.Fatalf("after restart: %d pairs, oracle %d", len(pairs), len(oracle))
	}
	for _, p := range pairs {
		if oracle[string(p.Key)] != string(p.Value) {
			t.Fatalf("after restart: %x = %q, want %q", p.Key, p.Value, oracle[string(p.Key)])
		}
	}
}

// TestValuesAreStableUnderDrain verifies values survive the full
// membuffer→memtable→disk journey bit-exactly, including binary content.
func TestValuesAreStableUnderDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemoryBytes = 64 << 10
	db := openTestDB(t, cfg)
	rng := rand.New(rand.NewSource(5))
	want := make(map[string][]byte)
	for i := 0; i < 2000; i++ {
		k := spreadKey(uint64(i))
		v := make([]byte, rng.Intn(300))
		rng.Read(v)
		if err := db.Put(bg, k, v); err != nil {
			t.Fatal(err)
		}
		want[string(k)] = v
	}
	db.WaitDiskQuiesce()
	for k, v := range want {
		got, found, err := db.Get(bg, []byte(k))
		if err != nil || !found || !bytes.Equal(got, v) {
			t.Fatalf("binary value corrupted for %x (len %d vs %d)", k, len(got), len(v))
		}
	}
}

// TestEmptyValueAndEmptyKey covers degenerate shapes end to end.
func TestEmptyValueAndEmptyKey(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	if err := db.Put(bg, []byte{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get(bg, []byte{})
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty key/value: %v %v %v", v, found, err)
	}
	if err := db.Put(bg, []byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, found, _ = db.Get(bg, []byte("k"))
	if !found || len(v) != 0 {
		t.Fatalf("nil value: %v %v", v, found)
	}
	// Tombstone for the empty key.
	if err := db.Delete(bg, []byte{}); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get(bg, []byte{}); found {
		t.Fatal("deleted empty key visible")
	}
}

func TestLargeValues(t *testing.T) {
	db := openTestDB(t, testConfig(t))
	big := bytes.Repeat([]byte("B"), 1<<20) // 1 MiB value > memtable target
	if err := db.Put(bg, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	db.WaitDiskQuiesce()
	v, found, err := db.Get(bg, []byte("big"))
	if err != nil || !found || !bytes.Equal(v, big) {
		t.Fatalf("large value: found=%v len=%d err=%v", found, len(v), err)
	}
	keysList := make([][]byte, 0, 4)
	for i := 0; i < 4; i++ {
		k := keys.EncodeUint64(uint64(i))
		db.Put(bg, k, big)
		keysList = append(keysList, k)
	}
	db.WaitDiskQuiesce()
	for _, k := range keysList {
		if _, found, _ := db.Get(bg, k); !found {
			t.Fatalf("large value for %x lost", k)
		}
	}
}
