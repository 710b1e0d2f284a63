package sstable

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"flodb/internal/cache"
	"flodb/internal/keys"
)

// ReaderMetrics aggregates read-path counters across every Reader that
// shares it (the store passes one instance to all its tables).
// BloomChecks counts filter consultations; BloomNegatives the checks a
// filter answered "definitely absent" — the lookups that skipped a
// block read entirely. Their ratio is the filter's observed hit rate.
type ReaderMetrics struct {
	BloomChecks    atomic.Uint64
	BloomNegatives atomic.Uint64
}

// ReaderOptions configure Open. The zero value reads without a cache —
// every block access is a pread plus a parse.
type ReaderOptions struct {
	// BlockCache, when non-nil, holds parsed data blocks keyed by
	// (CacheID, block offset) so repeat reads skip both the I/O and the
	// offset-array parse. The cache is shared between readers; CacheID
	// must be unique per table file for its lifetime (the store uses
	// the table's file number, which is never reused).
	BlockCache *cache.Cache
	CacheID    uint64
	// Metrics, when non-nil, receives bloom-filter counters.
	Metrics *ReaderMetrics
}

// Reader serves point lookups and iteration over one table file. It is
// safe for concurrent use: blocks are fetched with pread and no shared
// mutable state exists after Open.
type Reader struct {
	f      *os.File
	size   int64
	index  []indexEntry
	bloom  *bloomFilter // nil if the table has no filter
	count  uint64
	minSeq uint64
	maxSeq uint64

	bcache  *cache.Cache
	cacheID uint64
	metrics *ReaderMetrics
}

// Open validates the footer, loads the index and filter, and returns an
// uncached reader (equivalent to OpenOptions with zero options).
func Open(path string) (*Reader, error) {
	return OpenOptions(path, ReaderOptions{})
}

// OpenOptions validates the footer, loads the index and filter, and
// returns a reader wired to opts.
func OpenOptions(path string, opts ReaderOptions) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sstable: stat: %w", err)
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, fmt.Errorf("%w: file shorter than footer", ErrCorrupt)
	}
	ftrRaw := make([]byte, footerSize)
	if _, err := f.ReadAt(ftrRaw, st.Size()-footerSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("sstable: read footer: %w", err)
	}
	ftr, err := decodeFooter(ftrRaw)
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &Reader{
		f: f, size: st.Size(), count: ftr.count, minSeq: ftr.minSeq, maxSeq: ftr.maxSeq,
		bcache: opts.BlockCache, cacheID: opts.CacheID, metrics: opts.Metrics,
	}

	idxRaw, err := r.readAt(ftr.indexOff, ftr.indexLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	if r.index, err = decodeIndex(idxRaw); err != nil {
		f.Close()
		return nil, err
	}
	if ftr.filterLen > 0 {
		fltRaw, err := r.readAt(ftr.filterOff, ftr.filterLen)
		if err != nil {
			f.Close()
			return nil, err
		}
		if r.bloom, err = decodeBloom(fltRaw); err != nil {
			f.Close()
			return nil, err
		}
	}
	return r, nil
}

func (r *Reader) readAt(off uint64, length uint32) ([]byte, error) {
	if off+uint64(length) > uint64(r.size) {
		return nil, fmt.Errorf("%w: range [%d,%d) outside file of %d bytes", ErrCorrupt, off, off+uint64(length), r.size)
	}
	buf := make([]byte, length)
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("sstable: pread: %w", err)
	}
	return buf, nil
}

// Close releases the file handle.
func (r *Reader) Close() error { return r.f.Close() }

// Count returns the number of entries in the table.
func (r *Reader) Count() uint64 { return r.count }

// SeqBounds returns the min and max sequence numbers stored.
func (r *Reader) SeqBounds() (min, max uint64) { return r.minSeq, r.maxSeq }

// MayContain consults the bloom filter; true when absent filters.
func (r *Reader) MayContain(key []byte) bool {
	if r.bloom == nil {
		return true
	}
	if r.metrics != nil {
		r.metrics.BloomChecks.Add(1)
	}
	if r.bloom.mayContain(key) {
		return true
	}
	if r.metrics != nil {
		r.metrics.BloomNegatives.Add(1)
	}
	return false
}

// decodedBlock is a parsed data block. It is immutable after decode,
// which is what makes sharing one copy between every concurrent reader
// through the block cache safe.
type decodedBlock struct {
	payload []byte
	offsets []uint32
}

// blockOverhead approximates the per-entry bookkeeping the cache charge
// adds on top of the payload and offset-array bytes.
const blockOverhead = 96

// loadBlock returns the parsed block at e, consulting the shared block
// cache first. The returned block is unpinned immediately: blocks are
// immutable and garbage-collected, so a reader holding one keeps it
// alive even if the cache evicts it meanwhile — pinning is only needed
// for values with non-memory resources (the table cache's readers hold
// file descriptors and DO pin; see internal/storage).
func (r *Reader) loadBlock(e indexEntry) (*decodedBlock, error) {
	if r.bcache == nil {
		return r.readBlock(e)
	}
	k := cache.Key{ID: r.cacheID, Offset: e.off}
	if h := r.bcache.Get(k); h != nil {
		b := h.Value().(*decodedBlock)
		h.Release()
		return b, nil
	}
	b, err := r.readBlock(e)
	if err != nil {
		return nil, err
	}
	charge := int64(len(b.payload)) + 4*int64(len(b.offsets)) + blockOverhead
	r.bcache.Insert(k, b, charge, nil).Release()
	return b, nil
}

// readBlock fetches and parses the block at e from the file.
func (r *Reader) readBlock(e indexEntry) (*decodedBlock, error) {
	raw, err := r.readAt(e.off, e.length)
	if err != nil {
		return nil, err
	}
	payload, err := verifyChecksum(raw)
	if err != nil {
		return nil, err
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: block too short", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(payload[len(payload)-4:])
	offBytes := uint64(n) * 4
	if uint64(len(payload)) < 4+offBytes {
		return nil, fmt.Errorf("%w: offset array", ErrCorrupt)
	}
	offStart := uint64(len(payload)) - 4 - offBytes
	offsets := make([]uint32, n)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint32(payload[offStart+uint64(i)*4:])
	}
	return &decodedBlock{payload: payload[:offStart], offsets: offsets}, nil
}

// entryAt decodes the i-th entry of a block.
func (b *decodedBlock) entryAt(i int) (key []byte, seq uint64, kind keys.Kind, value []byte, err error) {
	if i < 0 || i >= len(b.offsets) {
		return nil, 0, 0, nil, fmt.Errorf("%w: entry index %d", ErrCorrupt, i)
	}
	p := b.payload[b.offsets[i]:]
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return nil, 0, 0, nil, fmt.Errorf("%w: entry key", ErrCorrupt)
	}
	p = p[n:]
	key = p[:klen]
	p = p[klen:]
	seq, n = binary.Uvarint(p)
	if n <= 0 || len(p) <= n {
		return nil, 0, 0, nil, fmt.Errorf("%w: entry seq", ErrCorrupt)
	}
	p = p[n:]
	kind = keys.Kind(p[0])
	p = p[1:]
	vlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < vlen {
		return nil, 0, 0, nil, fmt.Errorf("%w: entry value", ErrCorrupt)
	}
	p = p[n:]
	value = p[:vlen]
	return key, seq, kind, value, nil
}

// seekInBlock returns the index of the first entry with user key >= target
// (entries within a user key are newest-first, so this lands on the newest
// version of the first matching key).
func (b *decodedBlock) seekInBlock(target []byte) (int, error) {
	var decodeErr error
	i := sort.Search(len(b.offsets), func(i int) bool {
		k, _, _, _, err := b.entryAt(i)
		if err != nil {
			decodeErr = err
			return true
		}
		return keys.Compare(k, target) >= 0
	})
	return i, decodeErr
}

// Get returns the newest version of key stored in this table.
func (r *Reader) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	if !r.MayContain(key) {
		return nil, 0, 0, false, nil
	}
	// Find the first block whose last key >= key.
	bi := sort.Search(len(r.index), func(i int) bool {
		return keys.Compare(r.index[i].lastKey, key) >= 0
	})
	if bi == len(r.index) {
		return nil, 0, 0, false, nil
	}
	blk, err := r.loadBlock(r.index[bi])
	if err != nil {
		return nil, 0, 0, false, err
	}
	ei, err := blk.seekInBlock(key)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if ei == len(blk.offsets) {
		return nil, 0, 0, false, nil
	}
	k, seq, kind, v, err := blk.entryAt(ei)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if !keys.Equal(k, key) {
		return nil, 0, 0, false, nil
	}
	return v, seq, kind, true, nil
}

// --- Iterator ---------------------------------------------------------------

// Iterator walks a table in (user key asc, seq desc) order.
type Iterator struct {
	r        *Reader
	blockIdx int
	blk      *decodedBlock
	entryIdx int
	err      error

	key   []byte
	seq   uint64
	kind  keys.Kind
	value []byte
	valid bool
}

// NewIterator returns an iterator positioned before the first entry.
func (r *Reader) NewIterator() *Iterator {
	it := new(Iterator)
	it.Reset(r)
	return it
}

// Reset points it at table r, positioned before the first entry, so an
// iterator held by value in a recycled frame serves one table after
// another without allocating. Reset(nil) drops the references to the
// table and its current block.
func (it *Iterator) Reset(r *Reader) { *it = Iterator{r: r, blockIdx: -1} }

// SeekToFirst positions at the first entry.
func (it *Iterator) SeekToFirst() {
	it.err = nil
	if len(it.r.index) == 0 {
		it.valid = false
		return
	}
	it.loadBlockAt(0, 0)
}

// Seek positions at the first entry with user key >= target.
func (it *Iterator) Seek(target []byte) {
	it.err = nil
	bi := sort.Search(len(it.r.index), func(i int) bool {
		return keys.Compare(it.r.index[i].lastKey, target) >= 0
	})
	if bi == len(it.r.index) {
		it.valid = false
		return
	}
	blk, err := it.r.loadBlock(it.r.index[bi])
	if err != nil {
		it.fail(err)
		return
	}
	ei, err := blk.seekInBlock(target)
	if err != nil {
		it.fail(err)
		return
	}
	it.blk, it.blockIdx = blk, bi
	if ei == len(blk.offsets) {
		// Target is greater than every key in this block but <= its last
		// key cannot happen; move to the next block's first entry.
		it.loadBlockAt(bi+1, 0)
		return
	}
	it.entryIdx = ei
	it.decodeCurrent()
}

// Next advances one entry.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	it.entryIdx++
	if it.entryIdx >= len(it.blk.offsets) {
		it.loadBlockAt(it.blockIdx+1, 0)
		return
	}
	it.decodeCurrent()
}

func (it *Iterator) loadBlockAt(bi, ei int) {
	if bi >= len(it.r.index) {
		it.valid = false
		return
	}
	blk, err := it.r.loadBlock(it.r.index[bi])
	if err != nil {
		it.fail(err)
		return
	}
	it.blk, it.blockIdx, it.entryIdx = blk, bi, ei
	it.decodeCurrent()
}

func (it *Iterator) decodeCurrent() {
	k, seq, kind, v, err := it.blk.entryAt(it.entryIdx)
	if err != nil {
		it.fail(err)
		return
	}
	it.key, it.seq, it.kind, it.value = k, seq, kind, v
	it.valid = true
}

func (it *Iterator) fail(err error) {
	it.err = err
	it.valid = false
}

// Valid reports whether the iterator holds an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Err returns the first error encountered, if any.
func (it *Iterator) Err() error { return it.err }

// Key returns the current user key (valid until the iterator moves blocks).
func (it *Iterator) Key() []byte { return it.key }

// Seq returns the current entry's sequence number.
func (it *Iterator) Seq() uint64 { return it.seq }

// Kind returns the current entry's kind.
func (it *Iterator) Kind() keys.Kind { return it.kind }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }
