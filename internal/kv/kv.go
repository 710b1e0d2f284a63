// Package kv defines the store interface shared by FloDB and the four
// baseline systems, the Stats view every store reports from its metrics
// registry, and the encoding of key-value mutations used in
// write-ahead-log records.
//
// Having one interface is what lets the benchmark harness run six
// systems — the paper's five (FloDB, LevelDB, HyperLevelDB, RocksDB,
// RocksDB/cLSM) plus FloDB served over the wire (FloDB/net) — through
// identical drivers, as the paper's evaluation does.
//
// The five in-process engines also share one implementation of Store,
// internal/storage's Front: they differ only in how their memory
// component takes writes and answers reads, so every check, counter and
// latency around that is the same code on each.
package kv

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"flodb/internal/keys"
)

// Pair is a key-value result returned by scans.
type Pair struct {
	Key   []byte
	Value []byte
}

// View is the read half of the store contract: point reads, materializing
// range reads, and streaming cursors over ONE consistent source of data.
// Two things implement it — a Store itself (the live view, where every
// read observes the freshest data) and the handle returned by
// Store.Snapshot (a read-only view pinned at a point in time, where every
// read repeats identically however many writes land after it).
//
// Writing read paths against View, not Store, is what lets gets, scans
// and iterators be implemented once and served from either source.
//
// Close releases the view's resources. On the live view it closes the
// store; on a snapshot it unpins the snapshot (the store stays open) and
// further reads return ErrSnapshotReleased.
//
// Every operation takes a context: cancellation or deadline expiry makes
// the call return promptly with an error satisfying
// errors.Is(err, context.Canceled) / context.DeadlineExceeded. Iterators
// returned by NewIterator capture the context and honor it on every
// subsequent positioning call.
type View interface {
	// Get returns the value of key in this view. found is false if the
	// key is absent or deleted. The value belongs to the caller, and the
	// key is not kept (see Store).
	Get(ctx context.Context, key []byte) (value []byte, found bool, err error)
	// Scan returns all pairs with low <= key < high, in key order, as of
	// one point in time (on a single FloDB engine, linearizable).
	Scan(ctx context.Context, low, high []byte) ([]Pair, error)
	// NewIterator returns a streaming cursor over low <= key < high (nil
	// bounds are open). Unlike Scan it does not materialize the range:
	// memory use is O(1) in the range size. See Iterator for the
	// consistency contract.
	NewIterator(ctx context.Context, low, high []byte) (Iterator, error)
	// Close releases the view.
	Close() error
}

// Store is the user-facing key-value API from §2.1 of the paper — put,
// get, remove, and range reads with point-in-time (serializable)
// semantics — extended with the entry points a production store serving
// concurrent request threads needs: atomic multi-op write batches,
// named repeatable-read snapshots, online checkpoints, per-operation
// durability classes with a Sync barrier, and context-aware cancellation
// on every operation.
//
// The embedded View is the live read half: Get/Scan/NewIterator observe
// the freshest data, and Close closes the whole store.
//
// Durability: every mutation commits under a Durability class — the
// store's open-time default unless the call overrides it with a
// WriteOption (WithSync, WithDurability). Every store with a disk
// component keeps a commit log, whatever its default class, so any write
// may name a logged class (Buffered or Sync). Only a store without a disk
// component has no log: requesting a logged class there fails with
// ErrNotSupported rather than silently downgrading.
//
// Ownership: an implementation keeps none of the slices a call is handed.
// Once Put, Delete, Apply or Get returns, the caller may overwrite the
// key and value buffers it passed (and reuse a Batch after Reset), and a
// value Get returns belongs to the caller, who may modify it. A store
// that retains its inputs copies them; one that returns its own memory
// returns a copy.
type Store interface {
	View
	// Put inserts or overwrites key with value.
	Put(ctx context.Context, key, value []byte, opts ...WriteOption) error
	// Delete removes key (by writing a tombstone).
	Delete(ctx context.Context, key []byte, opts ...WriteOption) error
	// Apply commits every mutation in b atomically: after a crash either
	// all of b's operations are recovered or none are. The batch is
	// logged as one WAL record, amortizing framing — and, under
	// DurabilitySync, the whole batch costs one group-committed fsync.
	Apply(ctx context.Context, b *Batch, opts ...WriteOption) error
	// Sync is the durability barrier: it blocks until every mutation
	// acknowledged before the call is crash-durable, promoting the
	// acked-but-buffered window to durable in one group-committed disk
	// barrier. On a store without a disk component it returns nil — it
	// has no log and no buffered window to promote.
	Sync(ctx context.Context) error
	// Snapshot returns a read-only View pinned at the current state: a
	// repeatable-read handle whose Gets, Scans and iterators observe
	// exactly the data committed before the call, however long the handle
	// lives and however many writes land after it. The handle must be
	// Closed to release pinned resources; reads on a closed handle return
	// ErrSnapshotReleased.
	Snapshot(ctx context.Context) (View, error)
	// Checkpoint produces an openable on-disk copy of the store in dir
	// (which must not exist or be empty): immutable sstables are
	// hard-linked where possible, the manifest is rewritten, and the WAL
	// tail is copied, so the checkpoint reopens as a valid store holding
	// a prefix-consistent state. The source store stays online.
	Checkpoint(ctx context.Context, dir string) error
}

// --- Error taxonomy ----------------------------------------------------------

// ErrClosed is returned by operations on a closed store. Implementations
// wrap it, so test with errors.Is.
var ErrClosed = errors.New("kv: store closed")

// ErrSnapshotReleased is returned by reads through a snapshot View whose
// Close has run.
var ErrSnapshotReleased = errors.New("kv: snapshot released")

// ErrNotSupported is returned when a store cannot provide an operation in
// its current configuration (e.g. Checkpoint, or a logged durability
// class, on a store without a disk component).
var ErrNotSupported = errors.New("kv: operation not supported")

// ErrUnavailable is returned when a remote store cannot be reached: the
// node is down or unreachable. It distinguishes "node down" (retry later)
// from "bad request" (caller error, retrying is pointless). Implementations wrap it, so test with errors.Is.
var ErrUnavailable = errors.New("kv: node unavailable")

// Iterator is a streaming cursor over a key range, yielding live pairs in
// ascending key order. A fresh iterator is unpositioned; call First (or
// Seek, or Next, which implies First) to position it. Key and Value are
// valid only after a positioning call returned true and until the next
// positioning call, and nil otherwise. Once a positioning call has
// returned false the iterator is exhausted: Next keeps returning false
// until First or Seek repositions it. When iteration stops early, check
// Err; Close releases any pinned resources and must always be called, and
// every positioning call after it returns false.
//
// Consistency: an iterator is ONE point-in-time view for its whole
// lifetime — every pair it returns was current at a single moment no
// older than the iterator's creation, whatever is written while it is
// open. The multi-versioned baselines get there by pinning a snapshot
// sequence number; FloDB's single-versioned memory component seals the
// Membuffer, draws a sequence bound and chains the versions that bound
// still needs beneath later overwrites (internal/core pinView), which
// replaced Algorithm 3's restart-and-fallback scans (§4.4). In exchange an
// OPEN iterator holds resources — pinned sstables, chained versions —
// until Close: close it promptly.
type Iterator interface {
	// First positions at the first pair of the range.
	First() bool
	// Seek positions at the first pair with key >= the given key (clamped
	// to the iterator's range).
	Seek(key []byte) bool
	// Next advances to the next pair. On a fresh iterator it is
	// equivalent to First; on an exhausted one it returns false.
	Next() bool
	// Key returns the current key. The slice is valid until the iterator
	// advances; callers that retain it must copy.
	Key() []byte
	// Value returns the current value, under the same aliasing rule as Key.
	Value() []byte
	// Err returns the first error the iterator encountered, if any.
	Err() error
	// Close releases the iterator's resources. It is idempotent.
	Close() error
}

// Collect drains it from First into copies it does not alias, closes it,
// and returns the pairs — the one way a Scan materializes an iterator.
// On an iterator error the pairs are dropped and the error returned.
func Collect(it Iterator) ([]Pair, error) {
	defer it.Close()
	var out []Pair
	for ok := it.First(); ok; ok = it.Next() {
		out = append(out, Pair{Key: keys.Clone(it.Key()), Value: keys.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- WAL record encoding ----------------------------------------------------

// ErrBadRecord reports a structurally invalid mutation record.
var ErrBadRecord = errors.New("kv: bad record")

// MaxRecordFraming bounds the framing bytes of one mutation record: the
// record less its key and value.
const MaxRecordFraming = 1 + 2*binary.MaxVarintLen64

// RecordFraming writes into scratch, which must hold MaxRecordFraming
// bytes, the framing of the record of one mutation with a klen-byte key
// and a vlen-byte value: pre | key | mid | value is the record. It is the
// one place the record layout is written down:
//
//	kind(1) | klen(uvarint) | key | vlen(uvarint) | value
//
// A writer that gathers the record from its parts, such as the WAL's
// AppendRecord, never builds it.
func RecordFraming(scratch []byte, kind keys.Kind, klen, vlen int) (pre, mid []byte) {
	pre = append(scratch[:0], byte(kind))
	pre = binary.AppendUvarint(pre, uint64(klen))
	mid = binary.AppendUvarint(pre[len(pre):], uint64(vlen))
	return pre[:len(pre):len(pre)], mid
}

// appendRecord appends the record of one mutation to dst.
func appendRecord(dst []byte, kind keys.Kind, key, value []byte) []byte {
	var frame [MaxRecordFraming]byte
	pre, mid := RecordFraming(frame[:], kind, len(key), len(value))
	dst = append(dst, pre...)
	dst = append(dst, key...)
	dst = append(dst, mid...)
	return append(dst, value...)
}

// EncodeRecord serializes one mutation: kind, key, value.
func EncodeRecord(kind keys.Kind, key, value []byte) []byte {
	return appendRecord(make([]byte, 0, MaxRecordFraming+len(key)+len(value)), kind, key, value)
}

// DecodeRecord parses a record produced by EncodeRecord. The returned
// slices alias rec.
func DecodeRecord(rec []byte) (kind keys.Kind, key, value []byte, err error) {
	if len(rec) < 1 {
		return 0, nil, nil, fmt.Errorf("%w: empty", ErrBadRecord)
	}
	kind = keys.Kind(rec[0])
	if kind != keys.KindSet && kind != keys.KindDelete {
		return 0, nil, nil, fmt.Errorf("%w: kind %d", ErrBadRecord, rec[0])
	}
	rest := rec[1:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return 0, nil, nil, fmt.Errorf("%w: key length", ErrBadRecord)
	}
	rest = rest[n:]
	key = rest[:klen]
	rest = rest[klen:]
	vlen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < vlen {
		return 0, nil, nil, fmt.Errorf("%w: value length", ErrBadRecord)
	}
	rest = rest[n:]
	if uint64(len(rest)) != vlen {
		return 0, nil, nil, fmt.Errorf("%w: trailing bytes", ErrBadRecord)
	}
	value = rest[:vlen]
	return kind, key, value, nil
}
