package figures

import (
	"fmt"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// TestAllSystemsIteratorContract holds every system's cursors — over the
// live view and over a Snapshot — to the kv.Iterator contract: Key and
// Value are nil unless positioned, Next on a fresh cursor is First, Seek
// lands on the next present key and clamps to the range, a cursor that
// ran out stays out until it is repositioned, and Close is idempotent and
// final.
func TestAllSystemsIteratorContract(t *testing.T) {
	key := func(i int) []byte { return keys.EncodeUint64(uint64(i) << 56) }
	for _, sys := range AllSystems {
		for _, snapshot := range []bool{false, true} {
			name := string(sys) + "/live"
			if snapshot {
				name = string(sys) + "/snapshot"
			}
			t.Run(name, func(t *testing.T) {
				s := openSys(t, sys, t.TempDir())
				defer s.Close()
				for i := 0; i < 200; i += 2 {
					if err := s.Put(bg, key(i), keys.EncodeUint64(uint64(i))); err != nil {
						t.Fatal(err)
					}
				}
				var view kv.View = s
				if snapshot {
					snap, err := s.Snapshot(bg)
					if err != nil {
						t.Fatal(err)
					}
					defer snap.Close()
					view = snap
					// Keys the snapshot must not see: its Seeks land past them.
					for _, i := range []int{31, 101} {
						if err := s.Put(bg, key(i), keys.EncodeUint64(uint64(i))); err != nil {
							t.Fatal(err)
						}
					}
				}
				// [10, 170) holds the even keys 10, 12, ..., 168.
				it, err := view.NewIterator(bg, key(10), key(170))
				if err != nil {
					t.Fatal(err)
				}
				at := func(what string, ok bool, want int) {
					t.Helper()
					if want < 0 {
						if ok || it.Key() != nil || it.Value() != nil {
							t.Fatalf("%s: positioned at %x=%x, want exhausted with nil Key/Value", what, it.Key(), it.Value())
						}
						return
					}
					if !ok || string(it.Key()) != string(key(want)) || keys.DecodeUint64(it.Value()) != uint64(want) {
						t.Fatalf("%s: at %x=%x (ok %v), want key %d", what, it.Key(), it.Value(), ok, want)
					}
				}
				at("before positioning", false, -1)
				at("Next on a fresh cursor", it.Next(), 10)
				at("Seek to an absent key", it.Seek(key(31)), 32)
				at("Seek to a second absent key", it.Seek(key(101)), 102)
				at("Seek backward below low", it.Seek(key(2)), 10)
				at("Seek(nil)", it.Seek(nil), 10)
				at("Seek past high", it.Seek(key(180)), -1)
				at("Next after Seek past high", it.Next(), -1)
				at("Next after Seek past high, again", it.Next(), -1)
				n := 0
				for ok := it.First(); ok; ok = it.Next() {
					at(fmt.Sprintf("pair %d", n), true, 10+2*n)
					n++
				}
				if n != 80 {
					t.Fatalf("full pass read %d pairs, want 80", n)
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				at("after exhaustion", false, -1)
				at("Next after exhaustion", it.Next(), -1)
				at("Next after exhaustion, again", it.Next(), -1)
				at("First after exhaustion", it.First(), 10)
				for i := 0; i < 2; i++ {
					if err := it.Close(); err != nil {
						t.Fatalf("Close #%d: %v", i+1, err)
					}
				}
				if it.First() || it.Next() || it.Seek(key(10)) || it.Key() != nil || it.Value() != nil {
					t.Fatal("closed cursor repositioned")
				}
				if err := it.Err(); err != nil {
					t.Fatalf("closed cursor reports %v", err)
				}
			})
		}
	}
}
