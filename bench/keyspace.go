package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"flodb/internal/workload"
)

const (
	keySize   = workload.DefaultKeySize
	valueSize = workload.DefaultValueSize
	// userBytesPerKey is what one live key costs the user: key + value.
	userBytesPerKey = keySize + valueSize
)

// keyspace maps dense indices to the spread 8-byte keys of
// internal/workload and back, and holds the benchmark's model of the
// store: the last acknowledged version of every index.
//
// Every index has exactly one writer (see opGen.own), so version[i] is
// written by one goroutine and the model never races with itself. A
// reader loads version[i] BEFORE it issues a Get: whatever the store
// returns must be at least that new.
type keyspace struct {
	n       uint64
	u       *workload.Uniform
	inv     uint64 // multiplicative inverse of the spread multiplier mod 2^64
	version []atomic.Uint32
}

func newKeyspace(n uint64) *keyspace {
	ks := &keyspace{n: n, u: workload.NewUniform(n), version: make([]atomic.Uint32, n)}
	// KeyAt(i) is i times a fixed odd multiplier, big-endian; KeyAt(1) is
	// the multiplier itself. Newton's iteration inverts it mod 2^64.
	var k [keySize]byte
	mul := binary.BigEndian.Uint64(ks.u.KeyAt(1, k[:]))
	inv := mul
	for i := 0; i < 6; i++ {
		inv *= 2 - mul*inv
	}
	ks.inv = inv
	return ks
}

// key writes the key of index i into dst (len >= 8).
func (ks *keyspace) key(i uint64, dst []byte) []byte { return ks.u.KeyAt(i, dst) }

// index recovers the index of a key the benchmark wrote; ok is false for
// any other byte string.
func (ks *keyspace) index(key []byte) (uint64, bool) {
	if len(key) != keySize {
		return 0, false
	}
	i := binary.BigEndian.Uint64(key) * ks.inv
	return i, i < ks.n
}

// sortedKeys returns the spread image of indices [0,n) in ascending key
// order: the exact sequence a full scan of a store holding them returns.
func (ks *keyspace) sortedKeys() []uint64 {
	out := make([]uint64, ks.n)
	var k [keySize]byte
	for i := range out {
		out[i] = binary.BigEndian.Uint64(ks.key(uint64(i), k[:]))
	}
	slices.Sort(out)
	return out
}

// written counts indices with an acknowledged write.
func (ks *keyspace) written() uint64 {
	var n uint64
	for i := range ks.version {
		if ks.version[i].Load() > 0 {
			n++
		}
	}
	return n
}

// Value layout, 32 little-endian words: index, version, sum, then filler
// derived from sum, so a value torn, truncated or spliced from another key
// fails the check.
const valueWords = valueSize / 8

func valueSum(idx uint64, ver uint32) uint64 {
	x := idx*0x9e3779b97f4a7c15 ^ (uint64(ver)+1)*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>32
}

func fillValue(dst []byte, idx uint64, ver uint32) []byte {
	dst = dst[:valueSize]
	sum := valueSum(idx, ver)
	binary.LittleEndian.PutUint64(dst[0:], idx)
	binary.LittleEndian.PutUint64(dst[8:], uint64(ver))
	binary.LittleEndian.PutUint64(dst[16:], sum)
	for w := 3; w < valueWords; w++ {
		binary.LittleEndian.PutUint64(dst[8*w:], sum+uint64(w)*0x9e3779b97f4a7c15)
	}
	return dst
}

// checkValue validates v as a value of index idx and returns its version.
func checkValue(v []byte, idx uint64) (uint32, error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("value of index %d has %d bytes, want %d", idx, len(v), valueSize)
	}
	if got := binary.LittleEndian.Uint64(v[0:]); got != idx {
		return 0, fmt.Errorf("value of index %d carries index %d", idx, got)
	}
	ver64 := binary.LittleEndian.Uint64(v[8:])
	ver := uint32(ver64)
	sum := valueSum(idx, ver)
	if uint64(ver) != ver64 || binary.LittleEndian.Uint64(v[16:]) != sum {
		return 0, fmt.Errorf("value of index %d version %d fails its checksum", idx, ver64)
	}
	for w := 3; w < valueWords; w++ {
		if binary.LittleEndian.Uint64(v[8*w:]) != sum+uint64(w)*0x9e3779b97f4a7c15 {
			return 0, fmt.Errorf("value of index %d version %d is torn at word %d", idx, ver, w)
		}
	}
	return ver, nil
}

// tally counts operations whose result was checked and the ones that
// failed or returned a wrong result. It keeps the first few reasons.
type tally struct {
	attempted atomic.Uint64
	failed    atomic.Uint64

	mu      sync.Mutex
	reasons []string
}

const maxReasons = 8

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}
