package storage

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"flodb/internal/keys"
	"flodb/internal/obs"
	"flodb/internal/sstable"
)

// compaction describes one unit of background work: merge `inputs` (from
// `level` and level+1) into new files at level+1.
type compaction struct {
	level   int
	inputs  []*FileMeta // files from level
	overlap []*FileMeta // files from level+1
	// bounds of the merged key range (inclusive).
	lo, hi []byte
	// cause is why it was picked: causeL0Count, causeLevelSize or
	// causeReads.
	cause string
}

// The causes pickCompaction picks for, as compaction events name them.
const (
	causeL0Count   = "L0 count"
	causeLevelSize = "level size"
	causeReads     = "reads"
)

func (c *compaction) allInputs() []*FileMeta {
	out := make([]*FileMeta, 0, len(c.inputs)+len(c.overlap))
	out = append(out, c.inputs...)
	out = append(out, c.overlap...)
	return out
}

// maxBytesForLevel is the size threshold beyond which level l is eligible
// for compaction.
func (s *Store) maxBytesForLevel(l int) int64 {
	n := s.opts.BaseLevelBytes
	for i := 1; i < l; i++ {
		n *= levelMultiplier
	}
	return n
}

// pickCompaction selects the highest-scoring compaction whose inputs are
// not already being compacted. When nothing scores (L0 below its trigger,
// every level within its size), it takes a pending read-triggered request
// instead: all of L0, merged into L1 like a count-triggered compaction.
// Caller must hold vs.mu.
func (s *Store) pickCompaction() *compaction {
	v := s.vs.current.Load()

	bestLevel := -1
	bestScore := 1.0 // only pick when score >= 1
	cause := causeL0Count
	// L0 score: file count vs trigger.
	if score := float64(len(v.files[0])) / float64(s.opts.L0CompactionTrigger); score >= bestScore {
		bestScore, bestLevel = score, 0
	}
	for l := 1; l < NumLevels-1; l++ {
		if score := float64(v.SizeBytes(l)) / float64(s.maxBytesForLevel(l)); score >= bestScore {
			bestScore, bestLevel, cause = score, l, causeLevelSize
		}
	}
	var seekFile *FileMeta
	if bestLevel < 0 {
		if seekFile = s.seekFile.Load(); seekFile == nil {
			return nil
		}
		if !slices.Contains(v.files[0], seekFile) {
			// It left L0 in a compaction picked for another cause.
			s.seekFile.CompareAndSwap(seekFile, nil)
			return nil
		}
		bestLevel, cause = 0, causeReads
	}
	c := &compaction{level: bestLevel, cause: cause}
	if bestLevel == 0 {
		// All L0 files merge together (they may overlap each other).
		for _, f := range v.files[0] {
			if s.compacting[f.Num] {
				return nil // an L0 compaction is already running
			}
			c.inputs = append(c.inputs, f)
		}
	} else {
		// Round-robin over the level using the compaction pointer.
		files := v.files[bestLevel]
		if len(files) == 0 {
			return nil
		}
		ptr := s.compactPtr[bestLevel]
		idx := 0
		if ptr != nil {
			idx = sort.Search(len(files), func(i int) bool {
				return keys.Compare(files[i].Smallest, ptr) > 0
			})
			if idx == len(files) {
				idx = 0
			}
		}
		f := files[idx]
		if s.compacting[f.Num] {
			return nil
		}
		c.inputs = []*FileMeta{f}
	}
	c.lo, c.hi = keyRange(c.inputs)
	// Pull in the overlapping files one level down.
	for _, f := range v.overlappingFiles(c.level+1, c.lo, c.hi) {
		if s.compacting[f.Num] {
			return nil
		}
		c.overlap = append(c.overlap, f)
	}
	if len(c.overlap) > 0 {
		lo2, hi2 := keyRange(c.overlap)
		if keys.Compare(lo2, c.lo) < 0 {
			c.lo = lo2
		}
		if keys.Compare(hi2, c.hi) > 0 {
			c.hi = hi2
		}
	}
	for _, f := range c.allInputs() {
		s.compacting[f.Num] = true
	}
	if seekFile != nil {
		s.seekFile.CompareAndSwap(seekFile, nil)
	}
	return c
}

// requestReadCompaction records that f, an L0 table, has spent its seek
// budget, and wakes a compaction worker to take the request.
func (s *Store) requestReadCompaction(f *FileMeta) {
	s.seekFile.Store(f)
	s.MaybeScheduleCompaction()
}

func keyRange(files []*FileMeta) (lo, hi []byte) {
	for _, f := range files {
		if lo == nil || keys.Compare(f.Smallest, lo) < 0 {
			lo = f.Smallest
		}
		if hi == nil || keys.Compare(f.Largest, hi) > 0 {
			hi = f.Largest
		}
	}
	return lo, hi
}

// runCompaction installs c at level+1 in one manifest edit. When its only
// input overlaps nothing at level+1 it moves that table: same file number,
// no table written, so table-cache entries and cached rows stay valid, and
// tombstones in it stay until a later compaction merges it (LevelDB's
// trivial move). Otherwise it merges the inputs into new tables (merge).
// It unmarks c's inputs on every exit path and wakes WaitForCompactions
// waiters.
func (s *Store) runCompaction(c *compaction) error {
	var start time.Time
	if s.events != nil {
		start = time.Now()
	}
	defer func() {
		s.vs.mu.Lock()
		for _, f := range c.allInputs() {
			delete(s.compacting, f.Num)
		}
		s.cond.Broadcast()
		s.vs.mu.Unlock()
	}()
	outLevel := c.level + 1
	move := len(c.inputs) == 1 && len(c.overlap) == 0

	edit := &VersionEdit{}
	for _, f := range c.inputs {
		edit.Deleted = append(edit.Deleted, DeletedFile{Level: c.level, Num: f.Num})
	}
	for _, f := range c.overlap {
		edit.Deleted = append(edit.Deleted, DeletedFile{Level: outLevel, Num: f.Num})
	}
	var outputs []FileMeta
	if move {
		outputs = []FileMeta{*c.inputs[0]}
	} else {
		var err error
		if outputs, err = s.merge(c); err != nil {
			return err
		}
	}
	for i := range outputs {
		edit.Added = append(edit.Added, AddedFile{Level: outLevel, Meta: outputs[i]})
	}

	s.vs.mu.Lock()
	err := s.vs.logAndApply(edit)
	if err == nil && c.level > 0 {
		s.compactPtr[c.level] = append([]byte(nil), c.hi...)
	}
	obsolete := s.vs.takeObsolete()
	s.vs.mu.Unlock()
	if err != nil {
		return err
	}
	s.vs.deleteTables(obsolete)
	s.compactions.Add(1)
	if c.cause == causeReads {
		s.readCompactions.Add(1)
	}
	if move {
		s.trivialMoves.Add(1)
	}
	if s.events != nil {
		var inBytes, outBytes, outKeys int64
		for _, f := range c.allInputs() {
			inBytes += f.Size
		}
		var detail string
		if move { // a move writes nothing
			detail = fmt.Sprintf("L%d->L%d (%s), move of table %d, %s", c.level, outLevel, c.cause, c.inputs[0].Num, fmtByteSize(inBytes))
		} else {
			for i := range outputs {
				outBytes += outputs[i].Size
				outKeys += int64(outputs[i].Count)
			}
			detail = fmt.Sprintf("L%d->L%d (%s), %d in -> %d out files, %s in", c.level, outLevel, c.cause, len(c.allInputs()), len(outputs), fmtByteSize(inBytes))
		}
		s.events.Emit(obs.Event{
			Type: obs.EventCompaction, Dur: time.Since(start),
			Bytes: outBytes, Keys: outKeys, Detail: detail,
		})
		s.noteCachePressure()
	}
	return nil
}

// merge merges c's inputs into level+1 output tables, keeping only the
// newest version of each user key and dropping tombstones that shadow
// nothing deeper. On error it has removed every output it wrote.
func (s *Store) merge(c *compaction) ([]FileMeta, error) {
	outLevel := c.level + 1

	// Snapshot the deeper-level file ranges once for the tombstone check.
	cur := s.vs.current.Load()
	var deeper [][]*FileMeta
	for l := outLevel + 1; l < NumLevels; l++ {
		deeper = append(deeper, cur.files[l])
	}
	isBase := func(key []byte) bool {
		for _, files := range deeper {
			i := sort.Search(len(files), func(i int) bool {
				return keys.Compare(files[i].Largest, key) >= 0
			})
			if i < len(files) && keys.Compare(files[i].Smallest, key) <= 0 {
				return false
			}
		}
		return true
	}

	// Input tables stay pinned in the table cache for the compaction's
	// duration: eviction under fd pressure must not close a reader the
	// merge is mid-read on. Releasing an input also returns its read
	// window, which a pass over a whole table grows to the pooled size.
	var children []InternalIterator
	var pins []func()
	defer func() {
		for _, f := range pins {
			f()
		}
	}()
	for _, f := range c.inputs {
		r, h, err := s.cache.Get(f.Num)
		if err != nil {
			return nil, err
		}
		it := r.NewIterator()
		pins = append(pins, func() { it.Reset(nil); h.Release() })
		children = append(children, NewTableIterator(it))
	}
	if len(c.overlap) > 0 {
		li := NewLevelIterator(s.cache, c.overlap)
		pins = append(pins, li.close)
		children = append(children, li)
	}
	merged := NewMergingIterator(children...)

	var (
		outputs  []FileMeta
		w        *sstable.Writer
		wNum     uint64
		lastKey  []byte
		haveLast bool
	)
	finishOutput := func() error {
		if w == nil {
			return nil
		}
		m, err := w.Finish()
		if err != nil {
			return err
		}
		outputs = append(outputs, newFileMeta(wNum, m))
		w = nil
		return nil
	}
	abort := func() {
		if w != nil {
			w.Abort()
		}
		for _, o := range outputs {
			s.cache.Evict(o.Num)
			removeTable(s.dir, o.Num)
		}
	}

	for merged.SeekToFirst(); merged.Valid(); merged.Next() {
		key := merged.Key()
		if haveLast && keys.Equal(lastKey, key) {
			continue // older version of a key we already emitted
		}
		lastKey = append(lastKey[:0], key...)
		haveLast = true
		if merged.Kind() == keys.KindDelete && isBase(key) {
			continue // tombstone shadows nothing: drop it
		}
		if w == nil {
			s.vs.mu.Lock()
			wNum = s.vs.newFileNumLocked()
			s.vs.mu.Unlock()
			var err error
			w, err = sstable.NewWriter(TableFileName(s.dir, wNum), s.tableOpts())
			if err != nil {
				abort()
				return nil, err
			}
		}
		if err := w.Add(key, merged.Seq(), merged.Kind(), merged.Value()); err != nil {
			abort()
			return nil, err
		}
		if w.EstimatedSize() >= s.opts.TargetFileSize {
			if err := finishOutput(); err != nil {
				abort()
				return nil, err
			}
		}
	}
	if err := merged.Err(); err != nil {
		abort()
		return nil, fmt.Errorf("storage: compaction merge: %w", err)
	}
	if err := finishOutput(); err != nil {
		abort()
		return nil, err
	}
	return outputs, nil
}

// fmtByteSize renders a byte count for event detail strings.
func fmtByteSize(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func removeTable(dir string, num uint64) {
	// Best effort: compaction abort path.
	_ = removeFile(TableFileName(dir, num))
}
