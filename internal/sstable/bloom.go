package sstable

import (
	"encoding/binary"
	"fmt"
)

// Filter is a classic Bloom filter with double hashing, equivalent to
// LevelDB's built-in filter policy. LSM-trie (§6) motivates strong filters;
// we keep LevelDB's 10 bits/key default. A table's Filter is immutable once
// the table is written, so the store keeps a pointer to it beside the
// table's metadata and asks it before it takes a handle on the table.
type Filter struct {
	bits   []byte
	nBits  uint64
	probes uint32
}

// newBloom sizes a filter for n keys at bitsPerKey.
func newBloom(n int, bitsPerKey int) *Filter {
	if bitsPerKey <= 0 {
		bitsPerKey = DefaultBloomBitsPerKey
	}
	nBits := uint64(n * bitsPerKey)
	if nBits < 64 {
		nBits = 64
	}
	// k = ln2 * bits/key rounded, clamped to [1,30] as in LevelDB.
	probes := uint32(float64(bitsPerKey) * 0.69)
	if probes < 1 {
		probes = 1
	}
	if probes > 30 {
		probes = 30
	}
	return &Filter{
		bits:   make([]byte, (nBits+7)/8),
		nBits:  (nBits + 7) / 8 * 8,
		probes: probes,
	}
}

// add sets the bits of a key whose keys.Hash is h.
func (f *Filter) add(h uint64) {
	delta := h>>33 | h<<31
	for i := uint32(0); i < f.probes; i++ {
		pos := h % f.nBits
		f.bits[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// MayContain reports whether a key whose keys.Hash is h may be in the
// table; false means it is not.
func (f *Filter) MayContain(h uint64) bool {
	delta := h>>33 | h<<31
	for i := uint32(0); i < f.probes; i++ {
		pos := h % f.nBits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// encode serializes probes(uvarint) | bits, plus the CRC trailer.
func (f *Filter) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(f.probes))
	b = append(b, f.bits...)
	return appendChecksum(b)
}

func decodeBloom(raw []byte) (*Filter, error) {
	payload, err := verifyChecksum(raw)
	if err != nil {
		return nil, err
	}
	probes, sz := binary.Uvarint(payload)
	if sz <= 0 || probes == 0 || probes > 30 {
		return nil, fmt.Errorf("%w: bloom probes", ErrCorrupt)
	}
	bits := payload[sz:]
	if len(bits) == 0 {
		return nil, fmt.Errorf("%w: empty bloom", ErrCorrupt)
	}
	return &Filter{bits: bits, nBits: uint64(len(bits)) * 8, probes: uint32(probes)}, nil
}
