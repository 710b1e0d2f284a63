package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"flodb/internal/rcu"
	"flodb/internal/wal"
)

// VersionEdit is one manifest record: a delta applied to the version tree.
// Encoded as JSON inside a CRC-framed WAL record, giving the manifest the
// same torn-tail tolerance as the commit log.
type VersionEdit struct {
	// LogNum, when non-nil, records the oldest WAL whose contents are NOT
	// yet persisted in tables; recovery replays WALs >= LogNum.
	LogNum *uint64 `json:"log,omitempty"`
	// NextFileNum, when non-nil, advances the file-number allocator.
	NextFileNum *uint64 `json:"next,omitempty"`
	// LastSeq, when non-nil, records the newest persisted sequence number.
	LastSeq *uint64 `json:"seq,omitempty"`
	// Added and Deleted list file changes.
	Added   []AddedFile   `json:"add,omitempty"`
	Deleted []DeletedFile `json:"del,omitempty"`
}

// AddedFile places Meta at Level.
type AddedFile struct {
	Level int      `json:"level"`
	Meta  FileMeta `json:"meta"`
}

// DeletedFile removes file Num from Level.
type DeletedFile struct {
	Level int    `json:"level"`
	Num   uint64 `json:"num"`
}

// versionSet owns the current version, the manifest, and the file-number
// and sequence allocators. All fields are guarded by mu unless noted.
type versionSet struct {
	mu  sync.Mutex
	dir string

	// current is stored under mu and loaded anywhere. A Get reads it with
	// no lock and no reference, inside a section of readers (see enter);
	// deleteTables waits the sections out before it removes a file.
	current  atomic.Pointer[Version]
	readers  *rcu.Domain
	sections sync.Pool // *rcu.Handle, one per concurrent Get

	fileRefs    map[uint64]int // table file -> referencing live versions
	manifest    *wal.Writer
	manifestNum uint64
	nextFileNum uint64
	logNum      uint64
	lastSeq     uint64

	cache *tableCache

	// obsoleteTables queues files whose refcount hit zero for deletion.
	obsoleteTables []uint64
}

var errNoCurrent = errors.New("storage: CURRENT file missing")

// openVersionSet recovers the version set from dir, creating a fresh store
// when none exists.
func openVersionSet(dir string, cache *tableCache) (*versionSet, error) {
	vs := &versionSet{
		dir:         dir,
		readers:     rcu.NewDomain(),
		fileRefs:    make(map[uint64]int),
		nextFileNum: 1,
		cache:       cache,
	}
	vs.sections.New = func() any { return vs.readers.Reader() }
	err := vs.recover()
	switch {
	case errors.Is(err, errNoCurrent):
		vs.current.Store(&Version{refs: 1}) // the "current" reference
	case err != nil:
		return nil, err
	}
	vs.refFiles(vs.current.Load())
	// Start a fresh manifest generation containing a full snapshot.
	if err := vs.rewriteManifest(); err != nil {
		return nil, err
	}
	vs.removeOrphans()
	return vs, nil
}

// recover loads CURRENT and replays the manifest it names.
func (vs *versionSet) recover() error {
	cur, err := os.ReadFile(CurrentFileName(vs.dir))
	if err != nil {
		if os.IsNotExist(err) {
			return errNoCurrent
		}
		return fmt.Errorf("storage: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	kind, num := ParseFileName(name)
	if kind != KindManifest {
		return fmt.Errorf("storage: CURRENT names %q, not a manifest", name)
	}
	vs.manifestNum = num

	// Apply edits one at a time: an edit sequence may add a file and later
	// delete it (flush then compaction), which a single accumulated delta
	// would resurrect.
	v := &Version{}
	err = wal.ReplayAll(filepath.Join(vs.dir, name), func(rec []byte) error {
		var e VersionEdit
		if err := json.Unmarshal(rec, &e); err != nil {
			return fmt.Errorf("storage: manifest record: %w", err)
		}
		b := newVersionBuilder(v)
		b.apply(&e)
		v = b.build()
		if e.LogNum != nil {
			vs.logNum = *e.LogNum
		}
		if e.NextFileNum != nil {
			vs.nextFileNum = *e.NextFileNum
		}
		if e.LastSeq != nil {
			vs.lastSeq = *e.LastSeq
		}
		return nil
	})
	if err != nil {
		return err
	}
	// WAL numbers are allocated by the DB layer; never hand them out again.
	if vs.logNum >= vs.nextFileNum {
		vs.nextFileNum = vs.logNum + 1
	}
	if err := v.checkInvariants(); err != nil {
		return fmt.Errorf("storage: recovered version invalid: %w", err)
	}
	v.refs = 1
	vs.current.Store(v)
	return nil
}

// rewriteManifest starts a new manifest generation seeded with a snapshot
// of the current version, then atomically repoints CURRENT.
func (vs *versionSet) rewriteManifest() error {
	num := vs.nextFileNum
	vs.nextFileNum++
	path := ManifestFileName(vs.dir, num)
	w, err := wal.Create(path, wal.Options{})
	if err != nil {
		return err
	}
	snap := VersionEdit{
		LogNum:      ptr(vs.logNum),
		NextFileNum: ptr(vs.nextFileNum),
		LastSeq:     ptr(vs.lastSeq),
	}
	for l := 0; l < NumLevels; l++ {
		for _, f := range vs.current.Load().files[l] {
			snap.Added = append(snap.Added, AddedFile{Level: l, Meta: *f})
		}
	}
	rec, err := json.Marshal(&snap)
	if err != nil {
		w.Close()
		return err
	}
	if _, err := w.Append(rec); err != nil {
		w.Close()
		return err
	}
	// The Sync creates the file (a wal.Writer's first write-out does) and
	// makes it durable before CURRENT names it.
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := setCurrent(vs.dir, num); err != nil {
		w.Close()
		return err
	}
	if vs.manifest != nil {
		vs.manifest.Close()
		os.Remove(ManifestFileName(vs.dir, vs.manifestNum))
	}
	vs.manifest = w
	vs.manifestNum = num
	return nil
}

func ptr[T any](v T) *T { return &v }

// setCurrent atomically points CURRENT at manifest num: it writes and
// syncs CURRENT.tmp, renames it over CURRENT and syncs the directory, so
// the new name survives a crash once it returns.
func setCurrent(dir string, num uint64) error {
	tmp := filepath.Join(dir, "CURRENT.tmp")
	content := filepath.Base(ManifestFileName(dir, num)) + "\n"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, CurrentFileName(dir)); err != nil {
		return err
	}
	return SyncDir(dir)
}

// logAndApply writes edit to the manifest and installs the resulting
// version as current. Caller must hold mu.
func (vs *versionSet) logAndApply(e *VersionEdit) error {
	if e.LogNum != nil {
		vs.logNum = *e.LogNum
	}
	if e.LastSeq != nil && *e.LastSeq > vs.lastSeq {
		vs.lastSeq = *e.LastSeq
	}
	e.NextFileNum = ptr(vs.nextFileNum)

	rec, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := vs.manifest.Append(rec); err != nil {
		return err
	}
	if err := vs.manifest.Sync(); err != nil {
		return err
	}

	old := vs.current.Load()
	b := newVersionBuilder(old)
	b.apply(e)
	v := b.build()
	// Count the tables added to L0: only a flush adds there. The replay at
	// Open counts none; the row cache it would guard starts empty.
	for _, f := range b.added[0] {
		v.flushed++
		v.recent[v.flushed%flushRing] = f
	}
	v.refs = 1
	vs.refFiles(v)
	vs.current.Store(v)
	vs.unrefLocked(old)
	return nil
}

// refCurrent takes a counted reference on the current version, for a reader
// that outlives one call — an iterator, a snapshot, a checkpoint. Callers
// release with releaseVersion. A Get needs none: it reads inside enter/exit.
func (vs *versionSet) refCurrent() *Version {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v := vs.current.Load()
	v.refs++
	return v
}

// enter opens a read section in which the current version's files stay on
// disk and in the table cache whatever compaction does: load current after
// enter, and use it only until exit(h).
func (vs *versionSet) enter() *rcu.Handle {
	h := vs.sections.Get().(*rcu.Handle)
	h.Enter()
	return h
}

func (vs *versionSet) exit(h *rcu.Handle) {
	h.Exit()
	vs.sections.Put(h)
}

func (vs *versionSet) releaseVersion(v *Version) {
	vs.mu.Lock()
	vs.unrefLocked(v)
	obsolete := vs.takeObsolete()
	vs.mu.Unlock()
	vs.deleteTables(obsolete)
}

// unrefLocked drops one reference; at zero the version's files are
// unreferenced and any that reach zero overall are queued for deletion.
func (vs *versionSet) unrefLocked(v *Version) {
	v.refs--
	if v.refs > 0 {
		return
	}
	for l := 0; l < NumLevels; l++ {
		for _, f := range v.files[l] {
			vs.fileRefs[f.Num]--
			if vs.fileRefs[f.Num] <= 0 {
				delete(vs.fileRefs, f.Num)
				vs.obsoleteTables = append(vs.obsoleteTables, f.Num)
			}
		}
	}
}

func (vs *versionSet) refFiles(v *Version) {
	for l := 0; l < NumLevels; l++ {
		for _, f := range v.files[l] {
			vs.fileRefs[f.Num]++
		}
	}
}

func (vs *versionSet) takeObsolete() []uint64 {
	obs := vs.obsoleteTables
	vs.obsoleteTables = nil
	return obs
}

// deleteTables evicts the readers of tables no counted version references
// any more and unlinks them. A Get may still be reading one through the
// version it loaded without a reference, so it first waits one grace
// period of readers: every section open now has closed. Never call it from
// inside a read section — it would wait for itself — which is why a Get
// never takes or drops a counted version.
func (vs *versionSet) deleteTables(nums []uint64) {
	if len(nums) == 0 {
		return
	}
	vs.readers.Synchronize()
	for _, num := range nums {
		vs.cache.Evict(num)
		os.Remove(TableFileName(vs.dir, num))
	}
}

// newFileNum allocates a file number. Caller must hold mu.
func (vs *versionSet) newFileNumLocked() uint64 {
	n := vs.nextFileNum
	vs.nextFileNum++
	return n
}

// removeOrphans deletes temp files and table files not referenced by the
// current version (crash leftovers). WAL files are the DB layer's to
// manage; only WALs older than logNum are removed.
func (vs *versionSet) removeOrphans() {
	entries, err := os.ReadDir(vs.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		kind, num := ParseFileName(ent.Name())
		switch kind {
		case KindTemp:
			os.Remove(filepath.Join(vs.dir, ent.Name()))
		case KindTable:
			if _, live := vs.fileRefs[num]; !live {
				os.Remove(filepath.Join(vs.dir, ent.Name()))
			}
		case KindWAL:
			if num < vs.logNum {
				os.Remove(filepath.Join(vs.dir, ent.Name()))
			}
		case KindManifest:
			if num != vs.manifestNum {
				os.Remove(filepath.Join(vs.dir, ent.Name()))
			}
		}
	}
}

// close releases the manifest.
func (vs *versionSet) close() error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.manifest != nil {
		return vs.manifest.Close()
	}
	return nil
}

// readDir recovers the version set of the store directory dir from its
// CURRENT and the manifest CURRENT names, writing nothing: no manifest
// generation, no CURRENT, no orphan removal. It is how a directory is
// read without being opened (CloneDir, DumpDir).
func readDir(dir string) (*versionSet, error) {
	vs := &versionSet{dir: dir, fileRefs: make(map[uint64]int), nextFileNum: 1}
	if err := vs.recover(); err != nil {
		return nil, err
	}
	return vs, nil
}

// DumpDir writes a human-readable description of the level tree of the
// store directory dir (flodump). It only reads (readDir), so it is safe
// on a directory that a live store has open.
func DumpDir(dir string, w io.Writer) error {
	vs, err := readDir(dir)
	if err != nil {
		return fmt.Errorf("storage: dump %s: %w", dir, err)
	}
	fmt.Fprintf(w, "manifest=%d next-file=%d log=%d last-seq=%d\n",
		vs.manifestNum, vs.nextFileNum, vs.logNum, vs.lastSeq)
	cur := vs.current.Load()
	for l := 0; l < NumLevels; l++ {
		files := cur.files[l]
		if len(files) == 0 {
			continue
		}
		fmt.Fprintf(w, "L%d (%d files, %d bytes):\n", l, len(files), cur.SizeBytes(l))
		for _, f := range files {
			fmt.Fprintf(w, "  #%06d %8d bytes  [%x .. %x] seq %d..%d count %d\n",
				f.Num, f.Size, f.Smallest, f.Largest, f.MinSeq, f.MaxSeq, f.Count)
		}
	}
	return nil
}
