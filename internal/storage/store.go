package storage

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/cache"
	"flodb/internal/keys"
	"flodb/internal/obs"
	"flodb/internal/sstable"
	"flodb/internal/wal"
)

// Options configure the disk component.
type Options struct {
	// L0CompactionTrigger is the L0 file count that triggers compaction
	// (default DefaultL0CompactionTrigger, as in LevelDB). Below it, L0 is
	// still compacted when iterators have spent an L0 table's seek budget
	// (seekBudget) and no other compaction is due.
	L0CompactionTrigger int
	// L0StallThreshold is the L0 file count at which the memory component
	// should apply backpressure to writers (default 12).
	L0StallThreshold int
	// BaseLevelBytes is the L1 size target (default 8 MiB); each deeper
	// level is levelMultiplier times larger. Stores with a memory
	// component size it with SizeBaseLevel instead.
	BaseLevelBytes int64
	// TargetFileSize bounds compaction output files (default 2 MiB).
	TargetFileSize int64
	// BlockSize passes through to sstable writers; their bloom filters
	// take sstable's default bits per key.
	BlockSize int
	// CompactionThreads sets the background compaction parallelism
	// (default 1; the RocksDB-style baseline raises it, §2.2).
	CompactionThreads int
	// BlockCacheBytes bounds the shared read cache. Point reads fill it
	// with the rows they found; iterators and compaction neither fill nor
	// consult it; the name is historical (it held blocks). 0 selects
	// DefaultBlockCacheBytes; negative disables it (every Get that passes
	// the filters reads a block from the file).
	BlockCacheBytes int64
	// TableCacheCapacity bounds the number of concurrently open sstable
	// readers (fd budget). 0 selects DefaultTableCacheCapacity.
	TableCacheCapacity int
	// Events, when non-nil, receives structured flush/compaction/
	// cache-pressure events (a nil log drops them for free).
	Events *obs.EventLog
}

// DefaultL0CompactionTrigger is L0CompactionTrigger's default.
const DefaultL0CompactionTrigger = 4

// levelMultiplier is how much larger each level below L1 is than the one
// above it (LevelDB's ×10).
const levelMultiplier = 10

// SizeBaseLevel sets an unset BaseLevelBytes to hold one L0 compaction:
// L0CompactionTrigger flushes of a memtableBytes memory component. A
// smaller L1 leaves every L0→L1 compaction several times over its target,
// and the L1→L2 work that follows starves L0 until writers stall.
func (o *Options) SizeBaseLevel(memtableBytes int64) {
	if o.BaseLevelBytes > 0 {
		return
	}
	trigger := o.L0CompactionTrigger
	if trigger <= 0 {
		trigger = DefaultL0CompactionTrigger
	}
	o.BaseLevelBytes = int64(trigger) * memtableBytes
}

// DefaultBlockCacheBytes is the read-cache budget when the caller does
// not choose one: large enough that the warm working set of a benchmark
// store lives in memory, small next to the memory component itself.
const DefaultBlockCacheBytes = 32 << 20

func (o *Options) fillDefaults() {
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = DefaultL0CompactionTrigger
	}
	if o.L0StallThreshold <= 0 {
		o.L0StallThreshold = 12
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = 8 << 20
	}
	if o.TargetFileSize <= 0 {
		o.TargetFileSize = 2 << 20
	}
	if o.CompactionThreads <= 0 {
		o.CompactionThreads = 1
	}
}

// Store is the disk component: a leveled tree of sstables plus background
// compaction. The memory components (FloDB's two-tier design and the
// baselines' memtables) sit on top of exactly this interface.
type Store struct {
	dir  string
	opts Options

	vs    *versionSet
	cache *tableCache

	// bcache is the shared row cache (nil when disabled): rows of tables,
	// which bounded reads leave, and key rows, which latest reads leave
	// (newestRow). bloomChecks counts the table filters point reads
	// consulted, bloomNegatives the ones that answered "definitely absent"
	// and so spared the probe its table handle and its block read.
	// keyRowHits counts the latest reads a key row answered, keyRowsRetired
	// the key rows a read found but could not prove current, and
	// getBlockReads the blocks point reads read.
	bcache         *cache.Cache
	bloomChecks    obs.StripedCounter
	bloomNegatives obs.StripedCounter
	keyRowHits     obs.StripedCounter
	keyRowsRetired obs.StripedCounter
	getBlockReads  obs.StripedCounter

	// compacting marks input files of in-flight compactions; compactPtr
	// implements LevelDB's round-robin pick within a level. Both guarded
	// by vs.mu. cond (also on vs.mu) is broadcast whenever a compaction
	// finishes.
	compacting map[uint64]bool
	compactPtr [NumLevels][]byte
	cond       *sync.Cond

	// seekFile is the L0 table whose seek budget ran out last, nil when
	// none has: a read-triggered compaction request (requestReadCompaction)
	// that pickCompaction takes when no other compaction is due.
	seekFile atomic.Pointer[FileMeta]

	work    chan struct{}
	closing chan struct{}
	wg      sync.WaitGroup

	// compactions counts every installed compaction; readCompactions and
	// trivialMoves count the ones picked for reads and the ones that moved
	// a table without rewriting it.
	flushes         atomic.Uint64
	compactions     atomic.Uint64
	readCompactions atomic.Uint64
	trivialMoves    atomic.Uint64
	closed          atomic.Bool

	// events receives flush/compaction/cache-pressure events (may be
	// nil); evictMark is the block-cache eviction count at the last
	// cache-pressure event, so pressure is reported once per burst
	// rather than once per eviction.
	events    *obs.EventLog
	evictMark atomic.Uint64
}

// Open opens (or creates) a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir: %w", err)
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		compacting: make(map[uint64]bool),
		work:       make(chan struct{}, 1),
		closing:    make(chan struct{}),
		events:     opts.Events,
	}
	if opts.BlockCacheBytes >= 0 {
		bytes := opts.BlockCacheBytes
		if bytes == 0 {
			bytes = DefaultBlockCacheBytes
		}
		s.bcache = cache.New(bytes)
	}
	tc := newTableCache(dir, opts.TableCacheCapacity, sstable.ReaderOptions{BlockCache: s.bcache})
	vs, err := openVersionSet(dir, tc)
	if err != nil {
		tc.Close()
		return nil, err
	}
	s.vs = vs
	s.cache = tc
	s.cond = sync.NewCond(&s.vs.mu)
	for i := 0; i < opts.CompactionThreads; i++ {
		s.wg.Add(1)
		go s.compactionWorker()
	}
	s.MaybeScheduleCompaction()
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// LogNum returns the oldest WAL number whose writes are not yet in tables.
func (s *Store) LogNum() uint64 {
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	return s.vs.logNum
}

// LastSeq returns the newest sequence number recorded in the manifest.
func (s *Store) LastSeq() uint64 {
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	return s.vs.lastSeq
}

// NewFileNum allocates a file number (for WAL segments and tables).
func (s *Store) NewFileNum() uint64 {
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	return s.vs.newFileNumLocked()
}

// SetLogNum durably records the oldest live WAL without adding files (used
// at startup after WAL replay decides the new log).
func (s *Store) SetLogNum(logNum, lastSeq uint64) error {
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	return s.vs.logAndApply(&VersionEdit{LogNum: ptr(logNum), LastSeq: ptr(lastSeq)})
}

// tableOpts builds sstable writer options from the store options.
func (s *Store) tableOpts() sstable.WriterOptions {
	return sstable.WriterOptions{BlockSize: s.opts.BlockSize}
}

// Flush persists the contents of it as one L0 table. newLogNum is the WAL
// generation that remains live after this flush; lastSeq the newest
// sequence number contained. An empty iterator only advances the log
// pointer. The sorted bottom layer makes this "little more than a direct
// copy of the component to disk" (§2.3).
func (s *Store) Flush(it InternalIterator, newLogNum, lastSeq uint64) (*FileMeta, error) {
	var start time.Time
	if s.events != nil {
		start = time.Now()
	}
	s.vs.mu.Lock()
	num := s.vs.newFileNumLocked()
	s.vs.mu.Unlock()

	w, err := sstable.NewWriter(TableFileName(s.dir, num), s.tableOpts())
	if err != nil {
		return nil, err
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if err := w.Add(it.Key(), it.Seq(), it.Kind(), it.Value()); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		w.Abort()
		return nil, err
	}

	edit := &VersionEdit{LogNum: ptr(newLogNum), LastSeq: ptr(lastSeq)}
	var fm *FileMeta
	if w.Count() == 0 {
		if err := w.Abort(); err != nil {
			return nil, err
		}
	} else {
		m, err := w.Finish()
		if err != nil {
			return nil, err
		}
		f := newFileMeta(num, m)
		fm = &f
		edit.Added = append(edit.Added, AddedFile{Level: 0, Meta: *fm})
	}

	s.vs.mu.Lock()
	err = s.vs.logAndApply(edit)
	obsolete := s.vs.takeObsolete()
	s.vs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.vs.deleteTables(obsolete)
	s.flushes.Add(1)
	if s.events != nil && fm != nil {
		s.events.Emit(obs.Event{
			Type: obs.EventFlush, Dur: time.Since(start),
			Bytes: fm.Size, Keys: int64(fm.Count),
			Detail: fmt.Sprintf("table %d", fm.Num),
		})
		s.noteCachePressure()
	}
	s.MaybeScheduleCompaction()
	return fm, nil
}

// cachePressureBurst is the block-cache eviction delta that counts as a
// pressure burst worth one event.
const cachePressureBurst = 1024

// noteCachePressure emits one cache-pressure event per burst of block-
// cache evictions, sampled at flush/compaction boundaries (the moments
// that churn the cache) instead of per-eviction.
func (s *Store) noteCachePressure() {
	if s.events == nil || s.bcache == nil {
		return
	}
	st := s.bcache.Stats()
	mark := s.evictMark.Load()
	if st.Evictions-mark < cachePressureBurst {
		return
	}
	if s.evictMark.CompareAndSwap(mark, st.Evictions) {
		s.events.Emit(obs.Event{
			Type: obs.EventCachePressure, Bytes: st.Bytes,
			Keys:   int64(st.Evictions - mark),
			Detail: fmt.Sprintf("%d evictions since last burst", st.Evictions-mark),
		})
	}
}

// Get returns the newest version of key on disk.
func (s *Store) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	return s.GetHashed(key, keys.Hash(key))
}

// GetHashed is Get for a caller that has computed h, the keys.Hash of key,
// for a filter of its own: a point read hashes its key once.
//
// It takes no lock and no reference: the current Version is loaded inside a
// read section of the version set's RCU domain, and a table the read may
// touch is deleted only after the section ends (deleteTables).
func (s *Store) GetHashed(key []byte, h uint64) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	rh := s.vs.enter()
	defer s.vs.exit(rh)
	row, err := s.newestRow(s.vs.current.Load(), key, h)
	if row == nil {
		return nil, 0, 0, false, err
	}
	return row.Value, row.Seq, row.Kind, true, nil
}

// keyRowID is the cache ID rows cached under their user key carry. File
// numbers start at 1, so no table's rows share it.
const keyRowID = 0

// newestRow returns the newest version of key (h is its keys.Hash) in v,
// nil if v holds none. It asks the row cache once, for the row cached under
// key: a key row. A key row was the newest version of its key in the
// Version whose flush count it is stamped with. Only a flush adds newer
// data to disk: a compaction keeps every key's newest version, or drops a
// tombstone that shadowed nothing, which reads the same. So the row still
// answers if every table flushed since rules the key out (Version.rulesOut),
// and is re-stamped, so only its first hit after a flush pays for filters.
// A row that cannot be proved so is retired: the walk decides, with the row
// answering for its own table, and the walk's answer is stamped with v's
// flush count and cached under key.
func (s *Store) newestRow(v *Version, key []byte, h uint64) (*sstable.Row, error) {
	cached := sstable.CachedRow(s.bcache, keyRowID, h, key)
	var stamp uint64
	if cached != nil {
		if stamp = cached.Stamp(); stamp == v.flushed || v.rulesOut(s, stamp, key, h) {
			cached.Restamp(stamp, v.flushed)
			s.keyRowHits.Inc()
			return cached, nil
		}
		s.keyRowsRetired.Inc()
	}
	row, err := v.getAt(s, key, h, math.MaxUint64, true, cached)
	switch {
	case row == nil:
	case row == cached: // the walk reached its table: still the newest
		row.Restamp(stamp, v.flushed)
	default:
		// A row read or found under its table has no stamp, unless a walk
		// that proved it newest at a count gave it that count first.
		row.Restamp(0, v.flushed)
		sstable.CacheRow(s.bcache, keyRowID, h, row)
	}
	return row, err
}

// NewIterator returns a merged iterator over a snapshot of the disk
// component plus a release function that must be called when done (it
// drops the table pins and unpins the version, allowing obsolete files to
// be deleted).
func (s *Store) NewIterator() (InternalIterator, func(), error) {
	v := s.vs.refCurrent()
	vi := new(versionIter)
	if err := vi.init(s, v, nil); err != nil {
		s.vs.releaseVersion(v)
		return nil, nil, err
	}
	return &vi.merge, func() { vi.release(); s.vs.releaseVersion(v) }, nil
}

// PinVersion takes a reference on the current version and returns it.
// Pinned versions are immutable and their files are protected from
// deletion until ReleaseVersion — the foundation of snapshots and
// checkpoints.
func (s *Store) PinVersion() *Version { return s.vs.refCurrent() }

// ReleaseVersion drops the reference PinVersion took.
func (s *Store) ReleaseVersion(v *Version) { s.vs.releaseVersion(v) }

// GetAt returns the newest occurrence of key with seq <= maxSeq in the
// pinned version v. It asks and fills the rows of the tables it probes; the
// row cached under key answers only for the table it was read from.
func (s *Store) GetAt(v *Version, key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	h := keys.Hash(key)
	row, err := v.getAt(s, key, h, maxSeq, false, sstable.CachedRow(s.bcache, keyRowID, h, key))
	if row == nil {
		return nil, 0, 0, false, err
	}
	return row.Value, row.Seq, row.Kind, true, nil
}

// NumLevelFiles returns the file count at a level.
func (s *Store) NumLevelFiles(l int) int {
	return s.vs.current.Load().NumFiles(l)
}

// NeedsStall reports whether L0 has grown past the stall threshold;
// memory components should pause writers until compaction catches up. It
// reads the published version and takes no lock, so a writer's check never
// waits behind a manifest fsync.
func (s *Store) NeedsStall() bool {
	return len(s.vs.current.Load().files[0]) >= s.opts.L0StallThreshold
}

// MaybeScheduleCompaction nudges the background workers.
func (s *Store) MaybeScheduleCompaction() {
	select {
	case s.work <- struct{}{}:
	default:
	}
}

func (s *Store) compactionWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closing:
			return
		case <-s.work:
		}
		for {
			s.vs.mu.Lock()
			c := s.pickCompaction()
			s.vs.mu.Unlock()
			if c == nil {
				break
			}
			if err := s.runCompaction(c); err != nil {
				// Inputs were unmarked by runCompaction; a production
				// system would log the error, benchmarks see it via
				// Metrics not advancing.
				break
			}
			// Wake other workers in case more levels now exceed targets.
			s.MaybeScheduleCompaction()
			select {
			case <-s.closing:
				return
			default:
			}
		}
	}
}

// WaitForCompactions blocks until no compaction work is pending, helping
// with compactions inline. Tests and benchmark setup use it to reach a
// quiescent tree.
func (s *Store) WaitForCompactions() {
	for {
		s.vs.mu.Lock()
		c := s.pickCompaction()
		if c == nil {
			if len(s.compacting) == 0 {
				s.vs.mu.Unlock()
				return
			}
			// Another worker is mid-compaction; wait for it to finish,
			// then re-evaluate.
			s.cond.Wait()
			s.vs.mu.Unlock()
			continue
		}
		s.vs.mu.Unlock()
		if err := s.runCompaction(c); err != nil {
			return
		}
	}
}

// registerMetrics registers in reg the views an engine exposes over its
// commit log and disk component: the acked-vs-durable boundary kept in wm
// and the flush, compaction, cache and bloom counters of s. Each view
// reads its one counter at snapshot time.
func registerMetrics(reg *obs.Registry, s *Store, wm *wal.Metrics) {
	wm.Register(reg)
	reg.CounterFunc("flodb_flushes_total", "Memtable flushes to L0.", s.flushes.Load)
	reg.CounterFunc("flodb_compactions_total", "Background compactions completed, of every kind.", s.compactions.Load)
	reg.CounterFunc("flodb_read_compactions_total", "Compactions of L0 requested by a table that spent its seek budget.", s.readCompactions.Load)
	reg.CounterFunc("flodb_trivial_moves_total", "Compactions that moved a table one level down without rewriting it.", s.trivialMoves.Load)
	blocks := func() cache.Stats {
		if s.bcache == nil {
			return cache.Stats{}
		}
		return s.bcache.Stats()
	}
	reg.CounterFunc("flodb_block_cache_hits_total", "Block cache hits.", func() uint64 { return blocks().Hits })
	reg.CounterFunc("flodb_block_cache_misses_total", "Block cache misses.", func() uint64 { return blocks().Misses })
	reg.CounterFunc("flodb_block_cache_evictions_total", "Block cache evictions.", func() uint64 { return blocks().Evictions })
	reg.CounterFunc("flodb_table_cache_hits_total", "Table-handle cache hits.", func() uint64 { return s.cache.Stats().Hits })
	reg.CounterFunc("flodb_table_cache_misses_total", "Table-handle cache misses.", func() uint64 { return s.cache.Stats().Misses })
	reg.CounterFunc("flodb_bloom_checks_total", "Bloom filter checks.", s.bloomChecks.Load)
	reg.CounterFunc("flodb_bloom_negatives_total", "Bloom filter negatives (table reads skipped).", s.bloomNegatives.Load)
	reg.CounterFunc("flodb_key_row_hits_total", "Latest disk reads answered by the row cached under their key.", s.keyRowHits.Load)
	reg.CounterFunc("flodb_key_rows_retired_total", "Rows cached under their key that a table flushed since may have superseded.", s.keyRowsRetired.Load)
	reg.CounterFunc("flodb_get_block_reads_total", "Table blocks read by point reads.", s.getBlockReads.Load)
	reg.GaugeFunc("flodb_block_cache_bytes", "Bytes resident in the block cache.", func() int64 { return blocks().Bytes })
}

// Close stops background work and releases resources.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.closing)
	s.wg.Wait()
	err := s.vs.close()
	s.cache.Close()
	if s.bcache != nil {
		s.bcache.Close()
	}
	return err
}

func removeFile(path string) error { return os.Remove(path) }
