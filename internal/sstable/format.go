// Package sstable implements the sorted-table file format used by the disk
// component: immutable files of (key, seq, kind, value) entries sorted by
// (user key ascending, sequence number descending).
//
// File layout:
//
//	data block 0 … data block n-1
//	filter block (bloom filter over all user keys)
//	index block  (last key + offset + length of every data block)
//	footer       (fixed size: locations of filter and index, entry count, magic)
//
// Every block carries a CRC32-Castagnoli trailer. Data blocks also carry a
// per-entry offset array so point lookups binary-search inside a block
// instead of scanning it. There is no prefix compression and no block
// compression (snappy is not in the standard library); this is documented
// in DESIGN.md and does not change any of the paper's in-memory results.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies FloDB sstables (spells "FLODBSST" in hex-ish).
const Magic uint64 = 0xF10DB551F10DB551

// footerSize is the fixed footer length:
// filterOff(8) filterLen(4) indexOff(8) indexLen(4) count(8) minSeq(8) maxSeq(8) magic(8).
const footerSize = 8 + 4 + 8 + 4 + 8 + 8 + 8 + 8

// DefaultBlockSize is the target (uncompressed) data block payload size.
const DefaultBlockSize = 4 << 10

// DefaultBloomBitsPerKey matches LevelDB's customary 10 bits/key (~1% FP).
const DefaultBloomBitsPerKey = 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a failed structural or checksum validation.
var ErrCorrupt = errors.New("sstable: corrupt table")

type footer struct {
	filterOff uint64
	filterLen uint32
	indexOff  uint64
	indexLen  uint32
	count     uint64
	minSeq    uint64
	maxSeq    uint64
}

func (f *footer) encode() []byte {
	b := make([]byte, footerSize)
	le := binary.LittleEndian
	le.PutUint64(b[0:], f.filterOff)
	le.PutUint32(b[8:], f.filterLen)
	le.PutUint64(b[12:], f.indexOff)
	le.PutUint32(b[20:], f.indexLen)
	le.PutUint64(b[24:], f.count)
	le.PutUint64(b[32:], f.minSeq)
	le.PutUint64(b[40:], f.maxSeq)
	le.PutUint64(b[48:], Magic)
	return b
}

func decodeFooter(b []byte) (*footer, error) {
	if len(b) != footerSize {
		return nil, fmt.Errorf("%w: footer size %d", ErrCorrupt, len(b))
	}
	le := binary.LittleEndian
	if le.Uint64(b[48:]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return &footer{
		filterOff: le.Uint64(b[0:]),
		filterLen: le.Uint32(b[8:]),
		indexOff:  le.Uint64(b[12:]),
		indexLen:  le.Uint32(b[20:]),
		count:     le.Uint64(b[24:]),
		minSeq:    le.Uint64(b[32:]),
		maxSeq:    le.Uint64(b[40:]),
	}, nil
}

// appendChecksum appends the CRC trailer to a block payload.
func appendChecksum(block []byte) []byte {
	crc := crc32.Checksum(block, castagnoli)
	return binary.LittleEndian.AppendUint32(block, crc)
}

// verifyChecksum splits payload|crc and validates.
func verifyChecksum(block []byte) ([]byte, error) {
	if len(block) < 4 {
		return nil, fmt.Errorf("%w: short block", ErrCorrupt)
	}
	payload, trailer := block[:len(block)-4], block[len(block)-4:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// indexEntry locates one data block and its largest user key.
type indexEntry struct {
	lastKey []byte
	off     uint64
	length  uint32
}

func encodeIndex(entries []indexEntry) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(len(e.lastKey)))
		b = append(b, e.lastKey...)
		b = binary.AppendUvarint(b, e.off)
		b = binary.AppendUvarint(b, uint64(e.length))
	}
	return appendChecksum(b)
}

// minIndexEntry is the smallest encoding of one index entry: an empty key
// and one byte each for its length, the block offset and the block length.
const minIndexEntry = 3

// decodeIndex parses an index block of a table of fileSize bytes. Every
// block it returns lies inside the file, so whoever reads one allocates no
// more than the file holds.
func decodeIndex(raw []byte, fileSize uint64) ([]indexEntry, error) {
	payload, err := verifyChecksum(raw)
	if err != nil {
		return nil, err
	}
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)-sz)/minIndexEntry {
		return nil, fmt.Errorf("%w: index count", ErrCorrupt)
	}
	payload = payload[sz:]
	entries := make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, sz := binary.Uvarint(payload)
		if sz <= 0 || uint64(len(payload)-sz) < klen {
			return nil, fmt.Errorf("%w: index key", ErrCorrupt)
		}
		payload = payload[sz:]
		key := payload[:klen]
		payload = payload[klen:]
		off, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: index offset", ErrCorrupt)
		}
		payload = payload[sz:]
		length, sz := binary.Uvarint(payload)
		if sz <= 0 || off > fileSize || length > fileSize-off || length > math.MaxUint32 {
			return nil, fmt.Errorf("%w: index block range", ErrCorrupt)
		}
		payload = payload[sz:]
		entries = append(entries, indexEntry{lastKey: key, off: off, length: uint32(length)})
	}
	return entries, nil
}
