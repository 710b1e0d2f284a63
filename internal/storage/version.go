package storage

import (
	"fmt"
	"sort"
	"sync/atomic"

	"flodb/internal/keys"
	"flodb/internal/sstable"
)

// NumLevels is the depth of the on-disk hierarchy (L0..L6, as in LevelDB).
const NumLevels = 7

// FileMeta describes one sstable in the version tree.
type FileMeta struct {
	Num      uint64
	Size     int64
	Smallest []byte // smallest user key, inclusive
	Largest  []byte // largest user key, inclusive
	MinSeq   uint64
	MaxSeq   uint64
	Count    uint64

	// filter points at the cell holding the table's filter, which is how a
	// point read rejects the file without opening it. The cell is shared by
	// every copy of the metadata (versions hand files on by pointer, edits
	// by value). A table this process wrote gets the filter its writer
	// built (newFileMeta); one known only from the manifest, which does not
	// carry filters, starts empty and is filled from the table's Reader by
	// the first probe that needs it.
	filter *atomic.Pointer[sstable.Filter]
	// seeks points at the table's seek budget: what is left of the
	// iterator opens it may pay for at L0 before it asks to be compacted
	// away (chargeSeek). Shared by every copy, like filter; in memory only,
	// so a table known from the manifest starts a new run with a full one.
	seeks *atomic.Int64
}

// seekBudget is the number of iterator opens an L0 table of size bytes
// may take part in before it requests a compaction: LevelDB's
// allowed_seeks (version_set.cc), one seek per 16 KiB and at least 100.
// LevelDB reckons one seek costs about what compacting 40 KiB does and
// allows one per 16 KiB to be conservative: a table that has cost its
// readers that many seeks is cheaper merged into L1 than read again.
func seekBudget(size int64) int64 { return max(100, size/(16<<10)) }

// newSeekCell returns a seek-budget cell for a table of size bytes.
func newSeekCell(size int64) *atomic.Int64 {
	c := new(atomic.Int64)
	c.Store(seekBudget(size))
	return c
}

// chargeSeek charges one seek to f's budget and reports whether that seek
// spent it; exactly one caller sees true, whatever the concurrency.
func (f *FileMeta) chargeSeek() bool { return f.seeks.Add(-1) == 0 }

// newFileMeta describes table num, which a writer just finished as m, with
// the filter cell filled from the writer's filter.
func newFileMeta(num uint64, m sstable.Meta) FileMeta {
	f := FileMeta{
		Num: num, Size: m.Size, Smallest: m.Smallest, Largest: m.Largest,
		MinSeq: m.MinSeq, MaxSeq: m.MaxSeq, Count: m.Count,
		filter: new(atomic.Pointer[sstable.Filter]),
		seeks:  newSeekCell(m.Size),
	}
	if m.Filter != nil {
		f.filter.Store(m.Filter)
	} else {
		f.filter.Store(noFilter)
	}
	return f
}

// noFilter fills the cell of a table written without a filter.
var noFilter = new(sstable.Filter)

// tableFilter returns f's filter, nil if its table has none, opening the
// table to fetch it if neither its writer nor an earlier probe has filled
// the cell — only for a table known from the manifest of an earlier run.
func (f *FileMeta) tableFilter(tc *tableCache) (*sstable.Filter, error) {
	flt := f.filter.Load()
	if flt == nil {
		r, h, err := tc.Get(f.Num)
		if err != nil {
			return nil, err
		}
		if flt = r.Filter(); flt == nil {
			flt = noFilter
		}
		h.Release()
		f.filter.Store(flt)
	}
	if flt == noFilter {
		return nil, nil
	}
	return flt, nil
}

func (f *FileMeta) overlaps(lo, hi []byte) bool {
	// lo == nil means -inf, hi == nil means +inf. Bounds inclusive.
	if hi != nil && keys.Compare(f.Smallest, hi) > 0 {
		return false
	}
	if lo != nil && keys.Compare(f.Largest, lo) < 0 {
		return false
	}
	return true
}

// flushRing is how many of the latest flushed tables a Version keeps for
// the check of a key row (Store.newestRow): a row read before more flushes
// than this is walked for again.
const flushRing = 8

// Version is an immutable snapshot of the file tree. L0 files are ordered
// newest first (descending file number); deeper levels are sorted by
// Smallest and do not overlap.
type Version struct {
	files [NumLevels][]*FileMeta

	// flushed counts the tables flushed into L0 since Open, and recent
	// holds the latest flushRing of them: the n-th at recent[n%flushRing].
	// Only a flush puts newer data on disk, so a row that was the newest
	// version of its key in a Version that had flushed m tables is still
	// the newest here if tables m+1..flushed all rule the key out.
	flushed uint64
	recent  [flushRing]*FileMeta

	refs int // guarded by versionSet.mu
}

// Level returns the files of one level (shared slice; do not mutate).
func (v *Version) Level(l int) []*FileMeta { return v.files[l] }

// NumFiles returns the file count at level l.
func (v *Version) NumFiles(l int) int { return len(v.files[l]) }

// SizeBytes returns total bytes at level l.
func (v *Version) SizeBytes(l int) int64 {
	var n int64
	for _, f := range v.files[l] {
		n += f.Size
	}
	return n
}

// getAt searches the version for the newest occurrence of key (h is its
// keys.Hash) with seq <= maxSeq, newest level first, and returns it as a
// row, nil if there is none. Files whose version of the key is newer than
// maxSeq are skipped and the search continues in older files and deeper
// levels — the read path of a sequence-bounded snapshot over a pinned
// version. L0 is walked newest file first until the answer in hand is newer
// than anything the remaining files hold; flushes have disjoint sequence
// ranges, and the guard reads them from the metadata, so a file that breaks
// the pattern is still consulted.
//
// A latest read (GetHashed) walks with latest set: it asks the per-table
// rows but leaves none, and caches the row it returns under its key
// itself. A bounded read asks and fills them. Both pass the row cached
// under key, if any, as hint: it answers for its own table.
func (v *Version) getAt(s *Store, key []byte, h, maxSeq uint64, latest bool, hint *sstable.Row) (*sstable.Row, error) {
	var found *sstable.Row
	for _, f := range v.files[0] {
		if found != nil && f.MaxSeq < found.Seq {
			break
		}
		if !f.overlaps(key, key) {
			continue
		}
		row, err := s.probe(f, key, h, latest, hint)
		if err != nil {
			return nil, err
		}
		if row != nil && row.Seq <= maxSeq && (found == nil || row.Seq > found.Seq) {
			found = row
		}
	}
	if found != nil {
		return found, nil
	}
	for l := 1; l < NumLevels; l++ {
		files := v.files[l]
		if len(files) == 0 {
			continue
		}
		i := sort.Search(len(files), func(i int) bool {
			return keys.Compare(files[i].Largest, key) >= 0
		})
		if i == len(files) || keys.Compare(files[i].Smallest, key) > 0 {
			continue
		}
		row, err := s.probe(files[i], key, h, latest, hint)
		if err != nil {
			return nil, err
		}
		if row != nil && row.Seq <= maxSeq {
			return row, nil
		}
	}
	return nil, nil
}

// probe looks key (h is its keys.Hash) up in one file whose range covers it,
// paying for each step only if the one before could not answer: the hint if
// it was read from this file, the file's filter (no table handle, no
// Reader), the file's row in the cache, and only then a pinned Reader and
// the one block read of Reader.ReadRow, whose row a bounded read leaves in
// the cache. Tables are immutable and file numbers never reused, so a row
// read from f answers for f for as long as f lives.
func (s *Store) probe(f *FileMeta, key []byte, h uint64, latest bool, hint *sstable.Row) (*sstable.Row, error) {
	if hint != nil && hint.Table == f.Num {
		return hint, nil
	}
	flt, err := f.tableFilter(s.cache)
	if err != nil {
		return nil, err
	}
	if flt != nil {
		s.bloomChecks.Inc()
		if !flt.MayContain(h) {
			s.bloomNegatives.Inc()
			return nil, nil
		}
	}
	if row := sstable.CachedRow(s.bcache, f.Num, h, key); row != nil {
		return row, nil
	}
	r, hd, err := s.cache.Get(f.Num)
	if err != nil {
		return nil, err
	}
	defer hd.Release()
	s.getBlockReads.Inc()
	row, err := r.ReadRow(key)
	if row != nil && !latest {
		sstable.CacheRow(s.bcache, f.Num, h, row)
	}
	return row, err
}

// rulesOut reports whether every table flushed into v after the first
// stamp flushes rules key (h is its keys.Hash) out, by its key range or its
// filter. It cannot tell for a stamp older than the ring or newer than v,
// nor past a table without a filter, and reports false.
func (v *Version) rulesOut(s *Store, stamp uint64, key []byte, h uint64) bool {
	if stamp > v.flushed || v.flushed-stamp > flushRing {
		return false
	}
	for n := stamp + 1; n <= v.flushed; n++ {
		f := v.recent[n%flushRing]
		if !f.overlaps(key, key) {
			continue
		}
		if flt, err := f.tableFilter(s.cache); err != nil || flt == nil || flt.MayContain(h) {
			return false
		}
	}
	return true
}

// overlappingFiles returns the files in level l intersecting [lo, hi]
// (inclusive; nil bounds are infinite).
func (v *Version) overlappingFiles(l int, lo, hi []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range v.files[l] {
		if f.overlaps(lo, hi) {
			out = append(out, f)
		}
	}
	return out
}

// checkInvariants validates ordering constraints; used by tests.
func (v *Version) checkInvariants() error {
	for i := 1; i < len(v.files[0]); i++ {
		if v.files[0][i-1].Num <= v.files[0][i].Num {
			return fmt.Errorf("L0 not newest-first at %d", i)
		}
	}
	for l := 1; l < NumLevels; l++ {
		files := v.files[l]
		for i := range files {
			if keys.Compare(files[i].Smallest, files[i].Largest) > 0 {
				return fmt.Errorf("L%d file %d has inverted bounds", l, files[i].Num)
			}
			if i > 0 {
				if keys.Compare(files[i-1].Largest, files[i].Smallest) >= 0 {
					return fmt.Errorf("L%d files %d and %d overlap", l, files[i-1].Num, files[i].Num)
				}
			}
		}
	}
	return nil
}

// versionBuilder applies an edit to a base version.
type versionBuilder struct {
	base    *Version
	deleted map[uint64]bool
	added   [NumLevels][]*FileMeta
}

func newVersionBuilder(base *Version) *versionBuilder {
	return &versionBuilder{base: base, deleted: make(map[uint64]bool)}
}

func (b *versionBuilder) apply(e *VersionEdit) {
	for _, d := range e.Deleted {
		b.deleted[d.Num] = true
	}
	for _, a := range e.Added {
		f := a.Meta
		if f.filter == nil { // from the manifest: no filter until a probe opens the table
			f.filter = new(atomic.Pointer[sstable.Filter])
		}
		if f.seeks == nil {
			f.seeks = newSeekCell(f.Size)
		}
		b.added[a.Level] = append(b.added[a.Level], &f)
	}
}

func (b *versionBuilder) build() *Version {
	v := &Version{flushed: b.base.flushed, recent: b.base.recent}
	for l := 0; l < NumLevels; l++ {
		var files []*FileMeta
		for _, f := range b.base.files[l] {
			if !b.deleted[f.Num] {
				files = append(files, f)
			}
		}
		files = append(files, b.added[l]...)
		if l == 0 {
			sort.Slice(files, func(i, j int) bool { return files[i].Num > files[j].Num })
		} else {
			sort.Slice(files, func(i, j int) bool {
				return keys.Compare(files[i].Smallest, files[j].Smallest) < 0
			})
		}
		v.files[l] = files
	}
	return v
}
