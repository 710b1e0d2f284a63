package core

import (
	"fmt"
	"testing"

	"flodb/internal/kv"
)

// TestHotKeysNeverFillTheMemtable is §3.2's guard through the store: a
// million overwrites of 16 keys update in place — in the Membuffer, and in
// the Memtable the drainers move them to — so the Memtable holds 16 keys'
// worth of bytes however long the stream runs, and no persist is ever
// triggered. A Memtable that kept superseded values (an append-only arena
// of values, say) would fill and flush over and over.
func TestHotKeysNeverFillTheMemtable(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 100_000
	}
	for _, noMembuffer := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableMembuffer=%v", noMembuffer), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Durability = kv.DurabilityNone
			cfg.DisableMembuffer = noMembuffer
			db := openTestDB(t, cfg)
			val := make([]byte, 256)
			for i := 0; i < n; i++ {
				if err := db.Put(bg, spreadKey(uint64(i%16)), val); err != nil {
					t.Fatal(err)
				}
			}
			mtb := db.gen.Load().mtb
			if p := db.stats.persists.Load(); p != 0 {
				t.Fatalf("%d overwrites of 16 keys triggered %d persists", n, p)
			}
			if held := mtb.approxBytes() - int64(8*len(mtb.filter)); held > 16*400 {
				t.Fatalf("the Memtable charges %d bytes for 16 keys", held)
			}
			for i := uint64(0); i < 16; i++ {
				if _, ok, err := db.Get(bg, spreadKey(i)); err != nil || !ok {
					t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
				}
			}
		})
	}
}
