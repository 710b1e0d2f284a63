package storage

import (
	"fmt"
	"io"
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
	// (default DefaultL0CompactionTrigger, as in LevelDB).
	L0CompactionTrigger int
	// L0StallThreshold is the L0 file count at which the memory component
	// should apply backpressure to writers (default 12).
	L0StallThreshold int
	// BaseLevelBytes is the L1 size target; each deeper level is
	// LevelMultiplier times larger (defaults 8 MiB × 10). Stores with a
	// memory component size it with SizeBaseLevel instead.
	BaseLevelBytes  int64
	LevelMultiplier int
	// TargetFileSize bounds compaction output files (default 2 MiB).
	TargetFileSize int64
	// BlockSize and BloomBitsPerKey pass through to sstable writers.
	BlockSize       int
	BloomBitsPerKey int
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
	if o.LevelMultiplier <= 1 {
		o.LevelMultiplier = 10
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

	// bcache is the shared row cache (nil when disabled). bloomChecks
	// counts the table filters point reads consulted, bloomNegatives the
	// ones that answered "definitely absent" and so spared the probe its
	// table handle and its block read.
	bcache         *cache.Cache
	bloomChecks    obs.StripedCounter
	bloomNegatives obs.StripedCounter

	// compacting marks input files of in-flight compactions; compactPtr
	// implements LevelDB's round-robin pick within a level. Both guarded
	// by vs.mu. cond (also on vs.mu) is broadcast whenever a compaction
	// finishes.
	compacting map[uint64]bool
	compactPtr [NumLevels][]byte
	cond       *sync.Cond

	work    chan struct{}
	closing chan struct{}
	wg      sync.WaitGroup

	flushes     atomic.Uint64
	compactions atomic.Uint64
	closed      atomic.Bool

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

// Opts returns the effective options.
func (s *Store) Opts() Options { return s.opts }

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
	return sstable.WriterOptions{BlockSize: s.opts.BlockSize, BloomBitsPerKey: s.opts.BloomBitsPerKey}
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
	return s.vs.current.Load().getAt(s, key, h, math.MaxUint64)
}

// NewIterator returns a merged iterator over a snapshot of the disk
// component plus a release function that must be called when done (it
// unpins the version, allowing obsolete files to be deleted).
func (s *Store) NewIterator() (InternalIterator, func(), error) {
	v := s.vs.refCurrent()
	it, pins, err := v.newIterator(s)
	if err != nil {
		s.vs.releaseVersion(v)
		return nil, nil, err
	}
	return it, func() { pins(); s.vs.releaseVersion(v) }, nil
}

// PinVersion takes a reference on the current version and returns it.
// Pinned versions are immutable and their files are protected from
// deletion until ReleaseVersion — the foundation of snapshots and
// checkpoints.
func (s *Store) PinVersion() *Version { return s.vs.refCurrent() }

// AcquireVersion takes an additional reference on an already-pinned
// version (e.g. for an iterator that may outlive the snapshot handle).
func (s *Store) AcquireVersion(v *Version) {
	s.vs.mu.Lock()
	v.refs++
	s.vs.mu.Unlock()
}

// ReleaseVersion drops one reference taken by PinVersion/AcquireVersion.
func (s *Store) ReleaseVersion(v *Version) { s.vs.releaseVersion(v) }

// GetAt returns the newest occurrence of key with seq <= maxSeq in the
// pinned version v.
func (s *Store) GetAt(v *Version, key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool, err error) {
	return v.getAt(s, key, keys.Hash(key), maxSeq)
}

// NewVersionIterator builds a merged iterator over the pinned version v,
// plus a release function dropping the iterator's table pins. The caller
// must keep v pinned for the iterator's lifetime and call release when
// done iterating.
func (s *Store) NewVersionIterator(v *Version) (InternalIterator, func(), error) {
	return v.newIterator(s)
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

// Metrics is a snapshot of disk-component counters.
type Metrics struct {
	Flushes       uint64
	Compactions   uint64
	FilesPerLevel [NumLevels]int
	BytesPerLevel [NumLevels]int64
	CachedTables  int

	// Read-path cache and bloom-filter counters.
	BlockCacheHits      uint64
	BlockCacheMisses    uint64
	BlockCacheEvictions uint64
	BlockCacheBytes     int64
	TableCacheHits      uint64
	TableCacheMisses    uint64
	BloomChecks         uint64
	BloomNegatives      uint64
}

// Metrics returns current counters.
func (s *Store) Metrics() Metrics {
	m := Metrics{
		Flushes:        s.flushes.Load(),
		Compactions:    s.compactions.Load(),
		CachedTables:   s.cache.Len(),
		BloomChecks:    s.bloomChecks.Load(),
		BloomNegatives: s.bloomNegatives.Load(),
	}
	if s.bcache != nil {
		bst := s.bcache.Stats()
		m.BlockCacheHits = bst.Hits
		m.BlockCacheMisses = bst.Misses
		m.BlockCacheEvictions = bst.Evictions
		m.BlockCacheBytes = bst.Bytes
	}
	tst := s.cache.Stats()
	m.TableCacheHits = tst.Hits
	m.TableCacheMisses = tst.Misses
	cur := s.vs.current.Load()
	for l := 0; l < NumLevels; l++ {
		m.FilesPerLevel[l] = cur.NumFiles(l)
		m.BytesPerLevel[l] = cur.SizeBytes(l)
	}
	return m
}

// RegisterMetrics registers in reg the views an engine exposes over its
// commit log and disk component: the acked-vs-durable boundary kept in wm
// and the flush, compaction, cache and bloom counters of s. The views
// compute at snapshot time; a nil s (an engine with no disk component)
// reads 0.
func RegisterMetrics(reg *obs.Registry, s *Store, wm *wal.Metrics) {
	wm.Register(reg)
	metrics := func() Metrics {
		if s == nil {
			return Metrics{}
		}
		return s.Metrics()
	}
	view := func(name, help string, f func(*Metrics) uint64) {
		reg.CounterFunc(name, help, func() uint64 { m := metrics(); return f(&m) })
	}
	view("flodb_flushes_total", "Memtable flushes to L0.", func(m *Metrics) uint64 { return m.Flushes })
	view("flodb_compactions_total", "Background compactions completed.", func(m *Metrics) uint64 { return m.Compactions })
	view("flodb_block_cache_hits_total", "Block cache hits.", func(m *Metrics) uint64 { return m.BlockCacheHits })
	view("flodb_block_cache_misses_total", "Block cache misses.", func(m *Metrics) uint64 { return m.BlockCacheMisses })
	view("flodb_block_cache_evictions_total", "Block cache evictions.", func(m *Metrics) uint64 { return m.BlockCacheEvictions })
	view("flodb_table_cache_hits_total", "Table-handle cache hits.", func(m *Metrics) uint64 { return m.TableCacheHits })
	view("flodb_table_cache_misses_total", "Table-handle cache misses.", func(m *Metrics) uint64 { return m.TableCacheMisses })
	view("flodb_bloom_checks_total", "Bloom filter checks.", func(m *Metrics) uint64 { return m.BloomChecks })
	view("flodb_bloom_negatives_total", "Bloom filter negatives (table reads skipped).", func(m *Metrics) uint64 { return m.BloomNegatives })
	reg.GaugeFunc("flodb_block_cache_bytes", "Bytes resident in the block cache.",
		func() int64 { return metrics().BlockCacheBytes })
}

// Dump writes a human-readable description of the tree (flodump).
func (s *Store) Dump(w io.Writer) {
	s.vs.dump(w)
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
