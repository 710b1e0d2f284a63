// Package storage implements the disk component of the LSM: a leveled
// hierarchy of sstables with a manifest, background compaction, and a
// concurrent table cache. It corresponds to the "Disk component / L0..Ln"
// box of the paper's Figure 1 and reimplements the LevelDB mechanisms the
// paper keeps unchanged ("We keep the persisting and compaction mechanisms
// of LevelDB", §4).
//
// The one deliberate deviation, taken from the paper itself (§4 footnote
// 2), is the file-descriptor cache: LevelDB's global-lock-protected
// fd-cache was a scalability bottleneck, which FloDB replaced with a
// scalable concurrent hash table. Our table cache is sharded with
// per-shard locks for the same reason.
package storage

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
)

// FileKind identifies the role of a file in the store directory.
type FileKind int

const (
	// KindUnknown marks files the store does not manage.
	KindUnknown FileKind = iota
	// KindTable is an .sst sorted table.
	KindTable
	// KindWAL is a write-ahead log segment.
	KindWAL
	// KindManifest is a versioned MANIFEST file.
	KindManifest
	// KindCurrent is the CURRENT pointer file.
	KindCurrent
	// KindTemp is a temporary file from an interrupted operation.
	KindTemp
)

// TableFileName returns the path of table number n inside dir.
func TableFileName(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.sst", n))
}

// WALFileName returns the path of WAL segment n inside dir.
func WALFileName(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.wal", n))
}

// ManifestFileName returns the path of manifest generation n.
func ManifestFileName(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("MANIFEST-%06d", n))
}

// CurrentFileName returns the CURRENT pointer path.
func CurrentFileName(dir string) string { return filepath.Join(dir, "CURRENT") }

// ParseFileName classifies a base name and extracts its number when
// applicable.
func ParseFileName(base string) (kind FileKind, num uint64) {
	switch {
	case base == "CURRENT":
		return KindCurrent, 0
	case strings.HasPrefix(base, "MANIFEST-"):
		n, err := strconv.ParseUint(strings.TrimPrefix(base, "MANIFEST-"), 10, 64)
		if err != nil {
			return KindUnknown, 0
		}
		return KindManifest, n
	case strings.HasSuffix(base, ".sst"):
		n, err := strconv.ParseUint(strings.TrimSuffix(base, ".sst"), 10, 64)
		if err != nil {
			return KindUnknown, 0
		}
		return KindTable, n
	case strings.HasSuffix(base, ".wal"):
		n, err := strconv.ParseUint(strings.TrimSuffix(base, ".wal"), 10, 64)
		if err != nil {
			return KindUnknown, 0
		}
		return KindWAL, n
	case strings.HasSuffix(base, ".tmp"):
		n, err := strconv.ParseUint(strings.TrimSuffix(base, ".tmp"), 10, 64)
		if err != nil {
			return KindUnknown, 0
		}
		return KindTemp, n
	default:
		return KindUnknown, 0
	}
}
