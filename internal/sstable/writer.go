package sstable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"flodb/internal/keys"
)

// WriterOptions tune table construction.
type WriterOptions struct {
	// BlockSize is the target payload size of a data block; 0 means
	// DefaultBlockSize.
	BlockSize int
	// BloomBitsPerKey sizes the table's bloom filter; 0 means the default,
	// negative disables the filter.
	BloomBitsPerKey int
}

// Meta summarizes a finished table; the version set stores it in the
// manifest.
type Meta struct {
	Count            uint64
	Smallest         []byte // smallest user key (inclusive)
	Largest          []byte // largest user key (inclusive)
	MinSeq, MaxSeq   uint64
	Size             int64
	TombstoneEntries uint64
	// Filter is the filter Finish built and wrote, nil for a table
	// written without one: the same filter a Reader of the table decodes,
	// handed on so the table need not be opened to get it.
	Filter *Filter
}

// Writer builds an sstable. Entries must be appended in strictly increasing
// (user key ascending, seq descending) order; Add enforces this.
type Writer struct {
	f    *os.File
	bw   *bufio.Writer
	opts WriterOptions

	block      []byte   // current data block payload
	offsets    []uint32 // entry offsets within the current block
	index      []indexEntry
	fileOff    uint64
	count      uint64
	tombstones uint64
	minSeq     uint64
	maxSeq     uint64
	smallest   []byte
	largest    []byte
	lastKey    []byte
	lastSeq    uint64
	hasLast    bool
	hashes     []uint64 // keys.Hash of every key added, for the filter
	finished   bool
}

// NewWriter creates a table file at path (truncating any existing file).
func NewWriter(path string, opts WriterOptions) (*Writer, error) {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sstable: create: %w", err)
	}
	return &Writer{
		f:      f,
		bw:     bufio.NewWriterSize(f, 256<<10),
		opts:   opts,
		minSeq: ^uint64(0),
	}, nil
}

// Add appends one entry. Keys must arrive in (user key asc, seq desc)
// order; exact duplicates of (key, seq) are rejected.
func (w *Writer) Add(key []byte, seq uint64, kind keys.Kind, value []byte) error {
	if w.finished {
		return fmt.Errorf("sstable: Add after Finish")
	}
	if w.hasLast {
		c := keys.Compare(w.lastKey, key)
		if c > 0 || (c == 0 && w.lastSeq <= seq) {
			return fmt.Errorf("sstable: out-of-order add: %x@%d after %x@%d", key, seq, w.lastKey, w.lastSeq)
		}
	}
	w.lastKey = append(w.lastKey[:0], key...)
	w.lastSeq = seq
	w.hasLast = true

	w.offsets = append(w.offsets, uint32(len(w.block)))
	w.block = binary.AppendUvarint(w.block, uint64(len(key)))
	w.block = append(w.block, key...)
	w.block = binary.AppendUvarint(w.block, seq)
	w.block = append(w.block, byte(kind))
	w.block = binary.AppendUvarint(w.block, uint64(len(value)))
	w.block = append(w.block, value...)

	if w.count == 0 {
		w.smallest = append([]byte(nil), key...)
	}
	w.largest = append(w.largest[:0], key...)
	w.count++
	if kind == keys.KindDelete {
		w.tombstones++
	}
	if seq < w.minSeq {
		w.minSeq = seq
	}
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	if w.opts.BloomBitsPerKey >= 0 {
		w.hashes = append(w.hashes, keys.Hash(key))
	}
	if len(w.block) >= w.opts.BlockSize {
		return w.flushBlock()
	}
	return nil
}

// flushBlock finalizes the current data block: payload | offsets | count | crc.
func (w *Writer) flushBlock() error {
	if len(w.offsets) == 0 {
		return nil
	}
	payload := w.block
	for _, off := range w.offsets {
		payload = binary.LittleEndian.AppendUint32(payload, off)
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(w.offsets)))
	full := appendChecksum(payload)
	if _, err := w.bw.Write(full); err != nil {
		return fmt.Errorf("sstable: write block: %w", err)
	}
	w.index = append(w.index, indexEntry{
		lastKey: append([]byte(nil), w.lastKey...),
		off:     w.fileOff,
		length:  uint32(len(full)),
	})
	w.fileOff += uint64(len(full))
	w.block = w.block[:0]
	w.offsets = w.offsets[:0]
	return nil
}

// Finish flushes remaining data, writes filter, index and footer, syncs and
// closes the file, and returns the table's metadata.
func (w *Writer) Finish() (Meta, error) {
	if w.finished {
		return Meta{}, fmt.Errorf("sstable: double Finish")
	}
	w.finished = true
	if err := w.flushBlock(); err != nil {
		return Meta{}, err
	}

	var ftr footer
	ftr.count = w.count
	if w.count > 0 {
		ftr.minSeq = w.minSeq
		ftr.maxSeq = w.maxSeq
	}

	var bloom *Filter
	if w.opts.BloomBitsPerKey >= 0 {
		bloom = newBloom(len(w.hashes), w.opts.BloomBitsPerKey)
		for _, h := range w.hashes {
			bloom.add(h)
		}
		enc := bloom.encode()
		ftr.filterOff = w.fileOff
		ftr.filterLen = uint32(len(enc))
		if _, err := w.bw.Write(enc); err != nil {
			return Meta{}, fmt.Errorf("sstable: write filter: %w", err)
		}
		w.fileOff += uint64(len(enc))
	}

	idx := encodeIndex(w.index)
	ftr.indexOff = w.fileOff
	ftr.indexLen = uint32(len(idx))
	if _, err := w.bw.Write(idx); err != nil {
		return Meta{}, fmt.Errorf("sstable: write index: %w", err)
	}
	w.fileOff += uint64(len(idx))

	if _, err := w.bw.Write(ftr.encode()); err != nil {
		return Meta{}, fmt.Errorf("sstable: write footer: %w", err)
	}
	w.fileOff += footerSize

	if err := w.bw.Flush(); err != nil {
		return Meta{}, fmt.Errorf("sstable: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return Meta{}, fmt.Errorf("sstable: sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return Meta{}, fmt.Errorf("sstable: close: %w", err)
	}
	m := Meta{
		Count:            w.count,
		Smallest:         w.smallest,
		Largest:          append([]byte(nil), w.largest...),
		Size:             int64(w.fileOff),
		TombstoneEntries: w.tombstones,
		Filter:           bloom,
	}
	if w.count > 0 {
		m.MinSeq, m.MaxSeq = w.minSeq, w.maxSeq
	}
	return m, nil
}

// Abort closes and removes a partially written table.
func (w *Writer) Abort() error {
	w.finished = true
	name := w.f.Name()
	w.f.Close()
	return os.Remove(name)
}

// Count returns entries added so far.
func (w *Writer) Count() uint64 { return w.count }

// EstimatedSize returns bytes written plus the current block.
func (w *Writer) EstimatedSize() int64 { return int64(w.fileOff) + int64(len(w.block)) }
