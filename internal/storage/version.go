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
}

// newFileMeta describes table num, which a writer just finished as m, with
// the filter cell filled from the writer's filter.
func newFileMeta(num uint64, m sstable.Meta) FileMeta {
	f := FileMeta{
		Num: num, Size: m.Size, Smallest: m.Smallest, Largest: m.Largest,
		MinSeq: m.MinSeq, MaxSeq: m.MaxSeq, Count: m.Count,
		filter: new(atomic.Pointer[sstable.Filter]),
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

// Version is an immutable snapshot of the file tree. L0 files are ordered
// newest first (descending file number); deeper levels are sorted by
// Smallest and do not overlap.
type Version struct {
	files [NumLevels][]*FileMeta
	refs  int // guarded by versionSet.mu
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
// keys.Hash) with seq <= maxSeq, newest level first. Files whose version of
// the key is newer than maxSeq are skipped and the search continues in
// older files and deeper levels — the read path of a sequence-bounded
// snapshot over a pinned version. L0 is walked newest file first until the
// answer in hand is newer than anything the remaining files hold; flushes
// have disjoint sequence ranges, and the guard reads them from the
// metadata, so a file that breaks the pattern is still consulted.
func (v *Version) getAt(s *Store, key []byte, h, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	for _, f := range v.files[0] {
		if ok && f.MaxSeq < seq {
			break
		}
		if !f.overlaps(key, key) {
			continue
		}
		val, sq, k, hit, err := s.probe(f, key, h)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if hit && sq <= maxSeq && (!ok || sq > seq) {
			value, seq, kind, ok = val, sq, k, true
		}
	}
	if ok {
		return value, seq, kind, true, nil
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
		val, sq, k, hit, err := s.probe(files[i], key, h)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if hit && sq <= maxSeq {
			return val, sq, k, true, nil
		}
	}
	return nil, 0, 0, false, nil
}

// probe looks key (h is its keys.Hash) up in one file whose range covers it,
// paying for each step only if the one before could not answer: the file's
// filter (no table handle, no Reader), the row cache, and only then a
// pinned Reader and the one block read of Reader.Fetch.
func (s *Store) probe(f *FileMeta, key []byte, h uint64) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	flt, err := f.tableFilter(s.cache)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if flt != nil {
		s.bloomChecks.Inc()
		if !flt.MayContain(h) {
			s.bloomNegatives.Inc()
			return nil, 0, 0, false, nil
		}
	}
	if row := sstable.CachedRow(s.bcache, f.Num, h, key); row != nil {
		return row.Value, row.Seq, row.Kind, true, nil
	}
	r, hd, err := s.cache.Get(f.Num)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer hd.Release()
	return r.Fetch(key, h)
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
		b.added[a.Level] = append(b.added[a.Level], &f)
	}
}

func (b *versionBuilder) build() *Version {
	v := &Version{}
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
