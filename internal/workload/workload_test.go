package workload

import (
	"math/rand"
	"testing"
)

func TestMixValidAndSample(t *testing.T) {
	for _, m := range []Mix{WriteOnly, ReadOnly, Balanced, ScanWrite, ReadUpdate, ScanWithPct(25)} {
		if !m.Valid() {
			t.Fatalf("mix %+v does not sum to 100", m)
		}
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[Op]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[Balanced.Sample(rng)]++
	}
	if got := float64(counts[OpGet]) / n; got < 0.48 || got > 0.52 {
		t.Fatalf("get fraction %f, want ~0.50", got)
	}
	if got := float64(counts[OpInsert]) / n; got < 0.23 || got > 0.27 {
		t.Fatalf("insert fraction %f, want ~0.25", got)
	}
	if counts[OpScan] != 0 {
		t.Fatal("balanced mix should have no scans")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpGet: "get", OpInsert: "insert", OpDelete: "delete", OpScan: "scan", Op(9): "op?"} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestUniformCoversKeyspace(t *testing.T) {
	g := NewUniform(64)
	rng := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	dst := make([]byte, 8)
	for i := 0; i < 10000; i++ {
		seen[string(g.NextKey(rng, dst))] = true
	}
	if len(seen) != 64 {
		t.Fatalf("uniform over 64 keys produced %d distinct keys", len(seen))
	}
	if g.Keys() != 64 {
		t.Fatal("Keys() wrong")
	}
}

func TestUniformKeyAtMatchesNextKeySpace(t *testing.T) {
	g := NewUniform(1000)
	dst1, dst2 := make([]byte, 8), make([]byte, 8)
	rng := rand.New(rand.NewSource(3))
	// Every NextKey must be some KeyAt(i).
	valid := map[string]bool{}
	for i := uint64(0); i < 1000; i++ {
		valid[string(g.KeyAt(i, dst1))] = true
	}
	for i := 0; i < 5000; i++ {
		if !valid[string(g.NextKey(rng, dst2))] {
			t.Fatal("NextKey produced a key outside KeyAt's space")
		}
	}
}

func TestSequentialAscending(t *testing.T) {
	g := NewSequential(100)
	dst := make([]byte, 8)
	var prev []byte
	for i := 0; i < 100; i++ {
		k := g.NextKey(nil, dst)
		if prev != nil && string(prev) >= string(k) {
			t.Fatal("sequential keys not ascending")
		}
		prev = append(prev[:0], k...)
	}
	// Wraps around.
	k := g.NextKey(nil, dst)
	if string(k) >= string(prev) {
		// wrapped to key 0
	} else {
		t.Log("wrapped as expected")
	}
}

func TestHotSetSkew(t *testing.T) {
	g := NewHotSet(1000, 0.02, 98)
	if g.HotKeys() != 20 {
		t.Fatalf("hot keys = %d, want 20", g.HotKeys())
	}
	rng := rand.New(rand.NewSource(4))
	dst := make([]byte, 8)
	hot := map[string]bool{}
	for i := uint64(0); i < 20; i++ {
		hot[string(PutUint64(dst, i))] = true
	}
	hotCount := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if hot[string(g.NextKey(rng, dst))] {
			hotCount++
		}
	}
	frac := float64(hotCount) / n
	if frac < 0.96 || frac > 0.999 {
		t.Fatalf("hot fraction %f, want ~0.98", frac)
	}
}

func TestHotSetTinyKeyspace(t *testing.T) {
	g := NewHotSet(2, 0.02, 98) // hot set clamps to 1 key
	if g.HotKeys() != 1 {
		t.Fatalf("HotKeys = %d", g.HotKeys())
	}
	rng := rand.New(rand.NewSource(5))
	dst := make([]byte, 8)
	for i := 0; i < 100; i++ {
		g.NextKey(rng, dst) // must not panic
	}
}

func TestValueDeterministic(t *testing.T) {
	v1 := Value(nil, 256, 7)
	v2 := Value(make([]byte, 0, 256), 256, 7)
	if len(v1) != 256 || len(v2) != 256 {
		t.Fatal("value size wrong")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("value not deterministic")
		}
	}
	// Reuse without allocation.
	v3 := Value(v1, 128, 9)
	if len(v3) != 128 {
		t.Fatal("shrunk value wrong size")
	}
}

func TestPutUint64MatchesBigEndian(t *testing.T) {
	dst := make([]byte, 8)
	k := PutUint64(dst, 0x0102030405060708)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if k[i] != want[i] {
			t.Fatalf("byte %d = %x", i, k[i])
		}
	}
}

func TestZipfianSkewAndRange(t *testing.T) {
	const n = 1 << 16
	gen := NewZipfian(n, DefaultZipfS)
	rng := rand.New(rand.NewSource(1))
	dst := make([]byte, DefaultKeySize)
	counts := make(map[uint64]int)
	for i := 0; i < 1<<14; i++ {
		k := gen.NextKey(rng, dst)
		counts[uint64(k[0])<<56|uint64(k[1])<<48|uint64(k[2])<<40|uint64(k[3])<<32|
			uint64(k[4])<<24|uint64(k[5])<<16|uint64(k[6])<<8|uint64(k[7])]++
	}
	// Heavy skew: the single most popular key must carry far more than a
	// uniform draw's expected share (~0.25 hits here).
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if best < 100 {
		t.Fatalf("zipfian head too flat: hottest key drew %d of %d", best, 1<<14)
	}
	if gen.Keys() != n {
		t.Fatalf("Keys() = %d", gen.Keys())
	}
}
