package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func opStream(spec workloadSpec, seed int64, client, n int) []byte {
	g := newOpGen(spec, newKeyspace(spec.keys), seed, client)
	var out []byte
	for i := 0; i < n; i++ {
		o := g.next()
		out = append(out, byte(o.kind))
		out = binary.BigEndian.AppendUint64(out, o.arg)
	}
	return out
}

// The same seed gives byte-identical op streams; another seed, another
// client or another workload gives a different one.
func TestOpStreamsAreDeterministic(t *testing.T) {
	const n = 20_000
	seen := map[string]string{}
	for _, spec := range workloads {
		spec = spec.smoke()
		for client := 0; client < clients; client++ {
			a := opStream(spec, 5, client, n)
			if !bytes.Equal(a, opStream(spec, 5, client, n)) {
				t.Errorf("%s client %d: same seed, different streams", spec.name, client)
			}
			if bytes.Equal(a, opStream(spec, 6, client, n)) {
				t.Errorf("%s client %d: seeds 5 and 6 give the same stream", spec.name, client)
			}
			id := spec.name + string(rune('0'+client))
			if other, dup := seen[string(a)]; dup {
				t.Errorf("%s and %s share a stream", id, other)
			}
			seen[string(a)] = id
		}
	}
}

// Every Put lands on an index its client owns, so no key has two writers.
func TestOneWriterPerKey(t *testing.T) {
	for _, spec := range workloads {
		spec = spec.smoke()
		for client := 0; client < clients; client++ {
			g := newOpGen(spec, newKeyspace(spec.keys), 1, client)
			for i := 0; i < 20_000; i++ {
				o := g.next()
				if o.kind != opScan && o.arg >= spec.keys {
					t.Fatalf("%s: index %d outside the key space", spec.name, o.arg)
				}
				if o.kind == opPut && spec.writeRate == 0 && o.arg%clients != uint64(client) {
					t.Fatalf("%s: client %d writes index %d", spec.name, client, o.arg)
				}
			}
		}
	}
}

func TestKeyspaceRoundTrip(t *testing.T) {
	ks := newKeyspace(1000)
	var k [keySize]byte
	for i := uint64(0); i < ks.n; i++ {
		if got, ok := ks.index(ks.key(i, k[:])); !ok || got != i {
			t.Fatalf("index(key(%d)) = %d, %v", i, got, ok)
		}
	}
	if _, ok := ks.index([]byte("not a key")); ok {
		t.Error("a 9-byte string passed for a key")
	}
	v := fillValue(make([]byte, valueSize), 42, 7)
	if ver, err := checkValue(v, 42); err != nil || ver != 7 {
		t.Errorf("checkValue = %d, %v", ver, err)
	}
	if _, err := checkValue(v, 43); err == nil {
		t.Error("value of index 42 passed for index 43")
	}
	v[200] ^= 1
	if _, err := checkValue(v, 42); err == nil {
		t.Error("a torn value passed")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{9, 1, 4, 7, 2, 10, 3, 8, 6, 5}
	q1, q2, q3 := quartiles(v)
	for i, pair := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %v, Python gives %v", i+1, pair[0], pair[1])
		}
	}
}

func TestSamplerKeepsExactPercentilesAndHalves(t *testing.T) {
	s := newSampler(1000)
	for i := int64(1); i <= 999; i++ {
		s.add(i)
	}
	d := merge(-1, &s)
	if got := d.quantile(0.99); got != 990 {
		t.Errorf("p99 of 1..999 = %v, want 990", got)
	}
	for i := int64(1000); i <= 4000; i++ {
		s.add(i)
	}
	if s.k == 1 || len(s.buf) >= cap(s.buf) {
		t.Errorf("sampler did not halve: k=%d len=%d", s.k, len(s.buf))
	}
	d = merge(-1, &s)
	if s.seen != 4000 || d.max != 4000 {
		t.Errorf("seen %d max %d, want 4000 4000", s.seen, d.max)
	}
	if p50 := d.quantile(0.5); math.Abs(p50-2000) > 8 {
		t.Errorf("p50 after halving = %v, want about 2000", p50)
	}
}
