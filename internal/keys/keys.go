// Package keys provides key encodings and comparators shared by the FloDB
// memory component, the disk component, and the multi-versioned baseline
// memtables.
//
// User keys are arbitrary byte strings ordered by bytes.Compare. The
// benchmark workloads use 8-byte big-endian encodings of uint64 counters
// (the paper's 8 B key size), which makes numeric proximity coincide with
// lexicographic proximity — the property the Membuffer's most-significant-bit
// partitioning relies on.
//
// Internal keys append an 8-byte suffix encoding a sequence number and a
// kind (set/delete) to a user key. They order by user key ascending and
// then by sequence number *descending*, so that for a given user key the
// newest version is encountered first. FloDB's own memtable does not use
// internal keys (it updates in place); the LevelDB/HyperLevelDB/RocksDB
// baselines do, because multi-versioning is the behaviour the paper
// contrasts against (§3.2).
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind discriminates live values from tombstones in internal keys and in
// SSTable entries.
type Kind uint8

const (
	// KindSet marks a regular key-value record.
	KindSet Kind = 1
	// KindDelete marks a tombstone.
	KindDelete Kind = 0
)

func (k Kind) String() string {
	switch k {
	case KindSet:
		return "set"
	case KindDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MaxSeq is the largest representable sequence number (56 bits, as in
// LevelDB: 8 bits of the trailer hold the kind).
const MaxSeq = uint64(1)<<56 - 1

// Compare orders user keys lexicographically. It exists so that call sites
// read keys.Compare and so the ordering can be swapped in one place.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Equal reports whether two user keys are equal.
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }

// Hash is the 64-bit hash a point read computes once and hands down to
// every filter it consults — the Memtable's, each table's — and to the
// row cache as its key: FNV-1a, then the murmur3 finalizer to mix the
// entropy FNV's multiply only pushes upward back into the low bits. The
// bits of table filters on disk were set with it, so it is part of the
// table format.
func Hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// EncodeUint64 returns the 8-byte big-endian encoding of v. Big-endian
// makes numeric order match lexicographic order.
func EncodeUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// AppendUint64 appends the 8-byte big-endian encoding of v to dst.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint64 decodes an 8-byte big-endian key. It returns 0 for short
// inputs; callers that need validation should check len(b) themselves.
func DecodeUint64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// PartitionOf returns the index of the partition that key falls into when
// the key space is divided into 2^bits partitions by the most significant
// `bits` bits of the key (§4.3 of the paper). Keys shorter than needed are
// zero-extended. bits must be in [0, 16].
func PartitionOf(key []byte, bits uint) uint32 {
	if bits == 0 {
		return 0
	}
	var prefix uint32
	switch {
	case len(key) == 0:
		prefix = 0
	case len(key) == 1:
		prefix = uint32(key[0]) << 8
	default:
		prefix = uint32(key[0])<<8 | uint32(key[1])
	}
	return prefix >> (16 - bits)
}

// InternalKey is a user key with a packed (seq, kind) trailer, encoded as
// userKey + 8 bytes. The trailer packs seq<<8 | kind, stored so that the
// whole internal key compares with bytes-compare on the user key part and
// the trailer is decoded separately.
type InternalKey []byte

// MakeInternal builds an internal key from a user key, sequence number and
// kind.
func MakeInternal(user []byte, seq uint64, kind Kind) InternalKey {
	ik := make([]byte, 0, len(user)+8)
	ik = append(ik, user...)
	var trailer [8]byte
	binary.BigEndian.PutUint64(trailer[:], pack(seq, kind))
	return append(ik, trailer[:]...)
}

func pack(seq uint64, kind Kind) uint64 {
	if seq > MaxSeq {
		seq = MaxSeq
	}
	return seq<<8 | uint64(kind)
}

// Valid reports whether ik is long enough to carry a trailer.
func (ik InternalKey) Valid() bool { return len(ik) >= 8 }

// UserKey returns the user-key prefix of ik.
func (ik InternalKey) UserKey() []byte { return ik[:len(ik)-8] }

// Seq returns the sequence number from ik's trailer.
func (ik InternalKey) Seq() uint64 {
	t := binary.BigEndian.Uint64(ik[len(ik)-8:])
	return t >> 8
}

// Kind returns the kind from ik's trailer.
func (ik InternalKey) Kind() Kind {
	t := binary.BigEndian.Uint64(ik[len(ik)-8:])
	return Kind(t & 0xff)
}

func (ik InternalKey) String() string {
	if !ik.Valid() {
		return fmt.Sprintf("invalid-internal-key(%x)", []byte(ik))
	}
	return fmt.Sprintf("%x@%d:%s", ik.UserKey(), ik.Seq(), ik.Kind())
}

// SeekInternal returns an internal key that sorts at or before every
// version of user with seq' <= seq, and after every version with a newer
// sequence number. Multi-versioned readers seek to it to find "the newest
// version visible at snapshot seq".
func SeekInternal(user []byte, seq uint64) InternalKey {
	// Kind 0xff makes the trailer larger than any real (seq, kind) pair
	// with the same seq, and larger trailers sort earlier.
	return MakeInternal(user, seq, Kind(0xff))
}

// CompareInternal orders internal keys by (user key ascending, seq
// descending, kind descending). Newest versions sort first within a user
// key, which is what multi-versioned memtables and SSTable merge iterators
// require.
func CompareInternal(a, b InternalKey) int {
	if c := bytes.Compare(a.UserKey(), b.UserKey()); c != 0 {
		return c
	}
	ta := binary.BigEndian.Uint64(a[len(a)-8:])
	tb := binary.BigEndian.Uint64(b[len(b)-8:])
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	default:
		return 0
	}
}

// Successor returns the smallest key strictly greater than k in
// lexicographic order, by appending a zero byte. It allocates.
func Successor(k []byte) []byte {
	s := make([]byte, len(k)+1)
	copy(s, k)
	return s
}

// Clone returns a copy of b, or nil for nil. Stores retain keys and values
// beyond the caller's call frame, so the public API clones at the edges.
func Clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
