package sstable

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"flodb/internal/cache"
	"flodb/internal/keys"
)

// ReaderOptions configure Open. The zero value reads without a cache —
// every Get is a pread plus a checksum.
type ReaderOptions struct {
	// BlockCache, when non-nil, holds the rows point reads found, keyed by
	// (CacheID, keys.Hash(key)): Get fills it with what it read and asks it
	// before it reads. Iterators and compaction neither fill nor consult it.
	// The name is historical (it held blocks, one hot row to sixteen cold
	// ones). The cache is shared between readers; CacheID must be unique
	// per table file for its lifetime (the store uses the table's file
	// number, which is never reused — so rows need no invalidation). The
	// store also caches rows of its own in it, under an ID no table has
	// (CacheRow).
	BlockCache *cache.Cache
	CacheID    uint64
}

// tableFile is what a Reader needs of the file it reads: an *os.File, or a
// table image in memory under test.
type tableFile interface {
	io.ReaderAt
	io.Closer
}

// Reader serves point lookups and iteration over one table file. It is
// safe for concurrent use: blocks are fetched with pread and no shared
// mutable state exists after Open.
type Reader struct {
	f      tableFile
	size   uint64
	index  []indexEntry
	filter *Filter // nil if the table has no filter
	count  uint64
	minSeq uint64
	maxSeq uint64

	bcache  *cache.Cache
	cacheID uint64
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
	r := &Reader{
		f: f, size: uint64(st.Size()),
		bcache: opts.BlockCache, cacheID: opts.CacheID,
	}
	if err := r.loadTail(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// loadTail reads the footer and, through it, the index and the filter.
// Every length it acts on is checked against the file size first, so a
// corrupt field costs an error, never an allocation of its own size.
func (r *Reader) loadTail() error {
	if r.size < footerSize {
		return fmt.Errorf("%w: file shorter than footer", ErrCorrupt)
	}
	ftrRaw, err := r.readAt(r.size-footerSize, footerSize)
	if err != nil {
		return err
	}
	ftr, err := decodeFooter(ftrRaw)
	if err != nil {
		return err
	}
	r.count, r.minSeq, r.maxSeq = ftr.count, ftr.minSeq, ftr.maxSeq
	idxRaw, err := r.readAt(ftr.indexOff, ftr.indexLen)
	if err != nil {
		return err
	}
	if r.index, err = decodeIndex(idxRaw, r.size); err != nil {
		return err
	}
	if ftr.filterLen > 0 {
		fltRaw, err := r.readAt(ftr.filterOff, ftr.filterLen)
		if err != nil {
			return err
		}
		if r.filter, err = decodeBloom(fltRaw); err != nil {
			return err
		}
	}
	return nil
}

func (r *Reader) readAt(off uint64, length uint32) ([]byte, error) {
	if off > r.size || uint64(length) > r.size-off {
		return nil, fmt.Errorf("%w: range [%d,+%d) outside file of %d bytes", ErrCorrupt, off, length, r.size)
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

// Filter returns the table's filter, nil if it was written without one.
func (r *Reader) Filter() *Filter { return r.filter }

// block is a checksum-verified data block, read where it lies: entries
// and offsets alias the bytes it was parsed from — an iterator's read window
// or a Get's scratch buffer — so parsing allocates nothing and a block is
// cheap to hold by value.
type block struct {
	entries []byte
	offsets []byte // one little-endian uint32 per entry: its start in entries
}

// parseBlock verifies raw (entries | offsets | count | crc) and splits it.
func parseBlock(raw []byte) (block, error) {
	payload, err := verifyChecksum(raw)
	if err != nil {
		return block{}, err
	}
	if len(payload) < 4 {
		return block{}, fmt.Errorf("%w: block too short", ErrCorrupt)
	}
	body := payload[:len(payload)-4]
	offBytes := 4 * uint64(binary.LittleEndian.Uint32(payload[len(body):]))
	if offBytes > uint64(len(body)) {
		return block{}, fmt.Errorf("%w: offset array", ErrCorrupt)
	}
	split := len(body) - int(offBytes)
	return block{entries: body[:split], offsets: body[split:]}, nil
}

// len returns the number of entries in the block.
func (b *block) len() int { return len(b.offsets) / 4 }

// entryAt decodes the i-th entry of a block.
func (b *block) entryAt(i int) (key []byte, seq uint64, kind keys.Kind, value []byte, err error) {
	if i < 0 || i >= b.len() {
		return nil, 0, 0, nil, fmt.Errorf("%w: entry index %d", ErrCorrupt, i)
	}
	off := binary.LittleEndian.Uint32(b.offsets[4*i:])
	if uint64(off) > uint64(len(b.entries)) {
		return nil, 0, 0, nil, fmt.Errorf("%w: entry offset", ErrCorrupt)
	}
	p := b.entries[off:]
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
func (b *block) seekInBlock(target []byte) (int, error) {
	var decodeErr error
	i := sort.Search(b.len(), func(i int) bool {
		k, _, _, _, err := b.entryAt(i)
		if err != nil {
			decodeErr = err
			return true
		}
		return keys.Compare(k, target) >= 0
	})
	return i, decodeErr
}

// blockFor returns the index of the first block whose last key >= key, or
// len(r.index) when key is past the table's end.
func (r *Reader) blockFor(key []byte) int {
	return sort.Search(len(r.index), func(i int) bool {
		return keys.Compare(r.index[i].lastKey, key) >= 0
	})
}

// Row is one table entry as the read cache holds it: the newest version of
// Key in the table whose reader's CacheID is Table. Key and Value share one
// allocation and are never written after the row is built, so a Get may
// hand Value out while the cache evicts the row underneath it. The stamp is
// the one field that changes: a row cached under its user key rather than
// its table (the store's latest-read cache) carries in it the point up to
// which it is known to be the key's newest version on disk. A row cached
// under its table never uses it.
type Row struct {
	Key, Value []byte
	Seq        uint64
	Table      uint64
	Kind       keys.Kind
	stamp      atomic.Uint64
}

// Stamp returns the row's stamp (0 for a row that was never stamped).
func (r *Row) Stamp() uint64 { return r.stamp.Load() }

// Restamp moves the row's stamp from old to new, unless another caller
// moved it first. It writes nothing when old is new, so a hot row's line
// stays shared between the cores that read it.
func (r *Row) Restamp(old, new uint64) {
	if old != new {
		r.stamp.CompareAndSwap(old, new)
	}
}

// rowOverhead is what a cached row costs beyond its key and value bytes:
// the Row, the cache's entry and its share of the cache's slot table, and
// the rounding of all three to allocator size classes. Measured, and held
// to the heap's real growth by TestRowCacheChargeIsHonest.
const rowOverhead = 160

// CachedRow returns the row left in c under (id, h) for key, or nil; h is
// keys.Hash(key). The lookup is unpinned: rows are inserted without a
// deleter, immutable but for their stamp and garbage-collected, so the
// caller's pointer outlives an eviction, and a hit writes nothing shared
// but the row's CLOCK bit (pinning is for values that own something else,
// like the table cache's file descriptors).
func CachedRow(c *cache.Cache, id, h uint64, key []byte) *Row {
	if c == nil {
		return nil
	}
	row, _ := c.Lookup(cache.Key{ID: id, Offset: h}).(*Row)
	if row == nil || !keys.Equal(row.Key, key) {
		return nil // absent, or another key with the same hash
	}
	return row
}

// CacheRow leaves row in c under (id, h), where h is keys.Hash(row.Key),
// for CachedRow to find; a nil c caches nothing. A table's reader caches
// under its CacheID; the row must not be written after this.
func CacheRow(c *cache.Cache, id, h uint64, row *Row) {
	if c != nil {
		c.Insert(cache.Key{ID: id, Offset: h}, row, int64(len(row.Key)+len(row.Value))+rowOverhead, nil).Release()
	}
}

// blockBufs recycles the scratch buffer a Get reads its one block into.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// Get returns the newest version of key stored in this table: past the
// filter, the row the cache holds for it, else the row ReadRow reads, left
// in the cache.
func (r *Reader) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	h := keys.Hash(key)
	if r.filter != nil && !r.filter.MayContain(h) {
		return nil, 0, 0, false, nil
	}
	row := CachedRow(r.bcache, r.cacheID, h, key)
	if row == nil {
		if row, err = r.ReadRow(key); row == nil {
			return nil, 0, 0, false, err
		}
		CacheRow(r.bcache, r.cacheID, h, row)
	}
	return row.Value, row.Seq, row.Kind, true, nil
}

// ReadRow returns the newest version of key stored in this table as a new
// Row, nil if the table does not hold key, asking neither the filter nor
// the cache and leaving nothing in the cache (CacheRow does). It reads the
// one block that can hold key into a pooled buffer and copies the entry
// out: nothing it allocates grows with the block.
func (r *Reader) ReadRow(key []byte) (*Row, error) {
	bi := r.blockFor(key)
	if bi == len(r.index) {
		return nil, nil
	}
	e := r.index[bi]
	buf := blockBufs.Get().(*[]byte)
	if cap(*buf) < int(e.length) {
		*buf = make([]byte, e.length)
	}
	if cap(*buf) <= retainWindow {
		defer blockBufs.Put(buf)
	}
	raw := (*buf)[:e.length]
	if _, err := r.f.ReadAt(raw, int64(e.off)); err != nil {
		return nil, fmt.Errorf("sstable: pread: %w", err)
	}
	blk, err := parseBlock(raw)
	if err != nil {
		return nil, err
	}
	ei, err := blk.seekInBlock(key)
	if err != nil || ei == blk.len() {
		return nil, err
	}
	k, seq, kind, v, err := blk.entryAt(ei)
	if err != nil || !keys.Equal(k, key) {
		return nil, err
	}
	kv := make([]byte, len(k)+len(v))
	copy(kv[copy(kv, k):], v)
	return &Row{Key: kv[:len(k):len(k)], Value: kv[len(k):], Seq: seq, Table: r.cacheID, Kind: kind}, nil
}

// --- Iterator ---------------------------------------------------------------

// An Iterator reads blocks in file order through a private window: one
// pread fetches as many whole consecutive blocks as fit the readahead
// size, which starts at minWindow and doubles with every refill up to
// maxWindow, so a short scan reads little and a long one issues few, large
// reads. Windows of up to retainWindow bytes use a buffer the Iterator
// owns and keeps across Reset — a recycled iterator reads without
// allocating — and larger ones are borrowed from bigWindows, so a long
// pass leaves nothing big pinned behind it.
const (
	minWindow    = 8 << 10
	maxWindow    = 256 << 10
	retainWindow = 64 << 10
)

// bigWindows recycles the maxWindow-sized buffers of long passes (full
// scans, compaction inputs).
var bigWindows = sync.Pool{New: func() any { return new([maxWindow]byte) }}

// Iterator walks a table in (user key asc, seq desc) order. Key and Value
// alias the current block in the iterator's window and are valid until the
// iterator moves.
type Iterator struct {
	r        *Reader
	blockIdx int
	blk      block
	entryIdx int
	err      error

	key   []byte
	seq   uint64
	kind  keys.Kind
	value []byte
	valid bool

	// win holds file bytes [winOff, winOff+len(win)): whole blocks. It is a
	// prefix of own, the buffer kept across Reset, or of a bigger one held
	// until the next Reset. ahead is the size of the next readahead.
	win, own []byte
	winOff   uint64
	ahead    int
}

// NewIterator returns an iterator positioned before the first entry.
func (r *Reader) NewIterator() *Iterator {
	it := new(Iterator)
	it.Reset(r)
	return it
}

// Reset points it at table r, positioned before the first entry, so an
// iterator held by value in a recycled frame serves one table after
// another without allocating: its own window buffer, emptied, stays with
// it. Reset(nil) drops the references to the table and its current block.
func (it *Iterator) Reset(r *Reader) {
	it.returnBorrowed()
	*it = Iterator{r: r, blockIdx: -1, win: it.own[:0], own: it.own, ahead: minWindow}
}

// returnBorrowed hands a window borrowed from bigWindows back.
func (it *Iterator) returnBorrowed() {
	if cap(it.win) == maxWindow {
		bigWindows.Put((*[maxWindow]byte)(it.win[:maxWindow]))
		it.win = nil
	}
}

// growWindow makes the window buffer at least n bytes, discarding its
// contents if it has to change buffers: the iterator's own up to
// retainWindow, a borrowed one up to maxWindow, and for a single block
// larger than that one of the block's size.
func (it *Iterator) growWindow(n int) {
	if n <= cap(it.win) {
		return
	}
	it.returnBorrowed()
	switch {
	case n <= retainWindow:
		it.own = make([]byte, 0, n)
		it.win = it.own
	case n <= maxWindow:
		it.win = bigWindows.Get().(*[maxWindow]byte)[:0]
	default:
		it.win = make([]byte, 0, n)
	}
}

// SeekToFirst positions at the first entry.
func (it *Iterator) SeekToFirst() {
	it.err = nil
	it.enter(0)
}

// Seek positions at the first entry with user key >= target.
func (it *Iterator) Seek(target []byte) {
	it.err = nil
	bi := it.r.blockFor(target)
	if !it.load(bi, false) {
		return
	}
	ei, err := it.blk.seekInBlock(target)
	if err != nil {
		it.fail(err)
		return
	}
	if ei == it.blk.len() {
		// Only a block whose index key overstates its last entry gets
		// here; the answer is the next block's first entry.
		it.enter(bi + 1)
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
	if it.entryIdx >= it.blk.len() {
		it.enter(it.blockIdx + 1)
		return
	}
	it.decodeCurrent()
}

// enter steps, in file order, to the first entry of block bi.
func (it *Iterator) enter(bi int) {
	if it.load(bi, true) {
		it.entryIdx = 0
		it.decodeCurrent()
	}
}

// load makes block bi current, reporting whether it did; bi past the last
// block ends the iteration. The window serves the block when it covers it.
// Otherwise an in-order step refills the window from bi on with one
// readahead, while a seek reads that one block and starts the readahead
// over: where a seek lands says nothing about what is read next.
func (it *Iterator) load(bi int, inOrder bool) bool {
	it.valid = false
	if bi >= len(it.r.index) {
		return false
	}
	e := it.r.index[bi]
	if e.off < it.winOff || e.off-it.winOff+uint64(e.length) > uint64(len(it.win)) {
		if !inOrder {
			it.ahead = minWindow
		}
		if err := it.refill(bi, inOrder); err != nil {
			it.fail(err)
			return false
		}
	}
	blk, err := parseBlock(it.win[e.off-it.winOff:][:e.length])
	if err != nil {
		it.fail(err)
		return false
	}
	it.blk, it.blockIdx = blk, bi
	return true
}

// refill points the window at block bi with one pread. With readahead it
// also takes as many of the whole blocks that follow bi in the file as fit
// the readahead size (a block larger than that is read alone), and doubles
// the size for next time.
func (it *Iterator) refill(bi int, readahead bool) error {
	index := it.r.index
	start := index[bi].off
	end := start + uint64(index[bi].length)
	if readahead {
		for j := bi + 1; j < len(index) && index[j].off == end && end-start+uint64(index[j].length) <= uint64(it.ahead); j++ {
			end += uint64(index[j].length)
		}
	}
	n := int(end - start)
	it.growWindow(max(n, it.ahead))
	if readahead && it.ahead < maxWindow {
		it.ahead *= 2
	}
	it.win, it.winOff = it.win[:n], start
	if _, err := it.r.f.ReadAt(it.win, int64(start)); err != nil {
		it.win = it.win[:0]
		return fmt.Errorf("sstable: pread: %w", err)
	}
	return nil
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

// Key returns the current user key (valid until the iterator moves).
func (it *Iterator) Key() []byte { return it.key }

// Seq returns the current entry's sequence number.
func (it *Iterator) Seq() uint64 { return it.seq }

// Kind returns the current entry's kind.
func (it *Iterator) Kind() keys.Kind { return it.kind }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }
