package kv

import (
	"encoding/binary"
	"fmt"

	"flodb/internal/keys"
)

// Batch is an ordered set of mutations committed atomically by
// Store.Apply. Operations are applied in insertion order, so a later Put
// or Delete of the same key wins. Put and Delete copy their arguments; the
// caller may reuse the slices immediately.
//
// A Batch may be reused across Apply calls via Reset. It is not safe for
// concurrent mutation.
type Batch struct {
	ops []BatchOp
	// arena backs the cloned keys and values, amortizing allocation across
	// ops. Slices handed out alias whichever backing array was current at
	// append time, so growth never invalidates earlier ops.
	arena []byte
}

// BatchOp is one mutation inside a Batch.
type BatchOp struct {
	Kind  keys.Kind
	Key   []byte
	Value []byte // nil for deletes
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// clone copies b into the arena and returns the stable copy.
func (b *Batch) clone(p []byte) []byte {
	if len(p) == 0 {
		// The nil/empty distinction is deliberately discarded: returning a
		// non-nil empty slice keeps deletes and empty values uniform.
		return []byte{}
	}
	n := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[n : n+len(p) : n+len(p)]
}

// Put records an insert-or-overwrite of key with value.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, BatchOp{Kind: keys.KindSet, Key: b.clone(key), Value: b.clone(value)})
}

// Delete records a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, BatchOp{Kind: keys.KindDelete, Key: b.clone(key)})
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Ops exposes the recorded operations (for stores applying the batch).
// The returned slice and its contents must not be mutated.
func (b *Batch) Ops() []BatchOp { return b.ops }

// Reset empties the batch for reuse. The arena is dropped rather than
// truncated: stores are allowed to retain the cloned key/value slices
// after Apply, so overwriting the old backing array would corrupt them.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.arena = nil
}

// --- Multi-op WAL record encoding -------------------------------------------

// batchMarker introduces a multi-op WAL record. It is distinct from every
// keys.Kind value (KindDelete=0, KindSet=1), so single-op records produced
// by EncodeRecord and batch records share one WAL stream and are told
// apart by their first byte.
const batchMarker = 0xB7

// EncodeBatchRecord serializes a whole batch as ONE WAL record:
//
//	marker(1) | count(uvarint) | count × record (EncodeRecord's layout, see RecordFraming)
//
// Because the WAL layer frames and checksums each record as a unit, a
// batch record is recovered all-or-nothing: a crash mid-append tears the
// whole record, never a prefix of its operations.
func EncodeBatchRecord(b *Batch) []byte {
	size := 1 + binary.MaxVarintLen64
	for i := range b.ops {
		size += MaxRecordFraming + len(b.ops[i].Key) + len(b.ops[i].Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchMarker)
	buf = binary.AppendUvarint(buf, uint64(len(b.ops)))
	for i := range b.ops {
		op := &b.ops[i]
		buf = appendRecord(buf, op.Kind, op.Key, op.Value)
	}
	return buf
}

// IsBatchRecord reports whether rec was produced by EncodeBatchRecord.
func IsBatchRecord(rec []byte) bool {
	return len(rec) > 0 && rec[0] == batchMarker
}

// ForEachOp decodes rec — either a single-op record from EncodeRecord or a
// multi-op record from EncodeBatchRecord — invoking fn once per operation
// in order. The key and value slices alias rec and are only valid during
// the call. This is the one decoder WAL recovery needs.
func ForEachOp(rec []byte, fn func(kind keys.Kind, key, value []byte) error) error {
	if !IsBatchRecord(rec) {
		kind, key, value, err := DecodeRecord(rec)
		if err != nil {
			return err
		}
		return fn(kind, key, value)
	}
	rest := rec[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: batch count", ErrBadRecord)
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		if len(rest) < 1 {
			return fmt.Errorf("%w: batch op %d: missing kind", ErrBadRecord, i)
		}
		kind := keys.Kind(rest[0])
		if kind != keys.KindSet && kind != keys.KindDelete {
			return fmt.Errorf("%w: batch op %d: kind %d", ErrBadRecord, i, rest[0])
		}
		rest = rest[1:]
		key, tail, err := batchField(rest, i, "key")
		if err != nil {
			return err
		}
		rest = tail
		value, tail, err := batchField(rest, i, "value")
		if err != nil {
			return err
		}
		rest = tail
		if err := fn(kind, key, value); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: trailing bytes after batch", ErrBadRecord)
	}
	return nil
}

// batchField decodes one uvarint-prefixed field of a batch op.
func batchField(rest []byte, op uint64, what string) (field, tail []byte, err error) {
	flen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < flen {
		return nil, nil, fmt.Errorf("%w: batch op %d: %s length", ErrBadRecord, op, what)
	}
	rest = rest[n:]
	return rest[:flen], rest[flen:], nil
}
