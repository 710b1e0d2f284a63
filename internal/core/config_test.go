package core

import (
	"path/filepath"
	"strings"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/storage"
)

// TestOpenRejectsOutOfRangeConfig: invalid values fail Open with a
// descriptive error naming the field — never a silent clamp.
func TestOpenRejectsOutOfRangeConfig(t *testing.T) {
	base := func() Config { return Config{Dir: t.TempDir(), MemoryBytes: 1 << 20} }
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative memory", func(c *Config) { c.MemoryBytes = -1 }, "MemoryBytes"},
		{"memory past the arena", func(c *Config) { c.MemoryBytes = MaxMemoryBytes + 1 }, "MemoryBytes"},
		{"fraction at 1", func(c *Config) { c.MembufferFraction = 1 }, "MembufferFraction"},
		{"fraction negative", func(c *Config) { c.MembufferFraction = -0.5 }, "MembufferFraction"},
		{"partition bits 17", func(c *Config) { c.PartitionBits = 17 }, "PartitionBits"},
		{"negative drain threads", func(c *Config) { c.DrainThreads = -2 }, "DrainThreads"},
		{"invalid durability", func(c *Config) { c.Durability = kv.Durability(42) }, "Durability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			db, err := Open(cfg)
			if err == nil {
				db.Close()
				t.Fatal("out-of-range config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending field %q", err, tc.want)
			}
		})
	}
}

// TestNoMembufferGetsWholeBudget: with the Membuffer disabled (Fig 17's
// "No HT" row) the Memtable is the whole memory component, so it persists
// at MemoryBytes and L1 is sized from all of it — not from the Memtable's
// share of a split whose Membuffer does not exist (768 KiB of 1 MiB).
func TestNoMembufferGetsWholeBudget(t *testing.T) {
	const budget = 1 << 20
	db := openTestDB(t, Config{Dir: t.TempDir(), MemoryBytes: budget, DisableMembuffer: true})
	if db.memtableTarget != budget {
		t.Fatalf("persist target %d, want MemoryBytes %d", db.memtableTarget, budget)
	}
	if got, want := db.cfg.Storage.BaseLevelBytes, int64(storage.DefaultL0CompactionTrigger*budget); got != want {
		t.Fatalf("BaseLevelBytes %d, want %d: one L0 compaction of whole-budget Memtables", got, want)
	}
}

// TestEveryShapeLogsSnapshotsAndCheckpoints: every shape of the store —
// the default two levels, DropPersist (Fig 17's persist that discards) and
// DisableMembuffer (Fig 17's No HT) — has a disk component and a log, so
// each takes a Sync barrier, a Snapshot, a Checkpoint, and a Sync-class
// Put and Apply; the checkpoint reopens holding the Sync-class writes.
func TestEveryShapeLogsSnapshotsAndCheckpoints(t *testing.T) {
	shapes := map[string]func(*Config){
		"default":          func(*Config) {},
		"DropPersist":      func(c *Config) { c.DropPersist = true },
		"DisableMembuffer": func(c *Config) { c.DisableMembuffer = true },
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), MemoryBytes: 1 << 20, Durability: kv.DurabilityNone}
			shape(&cfg)
			db := openTestDB(t, cfg)
			if err := db.Put(bg, []byte("put"), []byte("p"), kv.WithSync()); err != nil {
				t.Fatalf("Sync-class Put: %v", err)
			}
			b := kv.NewBatch()
			b.Put([]byte("batch"), []byte("b"))
			if err := db.Apply(bg, b, kv.WithSync()); err != nil {
				t.Fatalf("Sync-class Apply: %v", err)
			}
			if err := db.Sync(bg); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if st := db.Stats(); st.DurableSeq != st.AckedSeq || st.AckedSeq != 2 {
				t.Fatalf("two Sync-class writes: acked %d, durable %d", st.AckedSeq, st.DurableSeq)
			}
			snap, err := db.Snapshot(bg)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if v, ok, err := snap.Get(bg, []byte("batch")); err != nil || !ok || string(v) != "b" {
				t.Fatalf("snapshot Get: %q %v %v", v, ok, err)
			}
			snap.Close()
			cp := filepath.Join(t.TempDir(), "cp")
			if err := db.Checkpoint(bg, cp); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			copied := openTestDB(t, Config{Dir: cp, MemoryBytes: 1 << 20})
			for k, want := range map[string]string{"put": "p", "batch": "b"} {
				if v, ok, err := copied.Get(bg, []byte(k)); err != nil || !ok || string(v) != want {
					t.Fatalf("checkpoint lost %s: %q %v %v", k, v, ok, err)
				}
			}
		})
	}
}

// TestSyncDurabilityRecoversEveryWrite: every Sync-class write survives a
// crash, including ones that completed in the Membuffer fast path.
func TestSyncDurabilityRecoversEveryWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemoryBytes: 1 << 20, Durability: kv.DurabilitySync}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := db.Put(bg, spreadKey(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.DurableSeq != s.AckedSeq {
		t.Fatalf("sync-default store left a window: durable %d < acked %d", s.DurableSeq, s.AckedSeq)
	}
	if s.MembufferHits == 0 {
		t.Fatal("expected some fast-path (Membuffer) sync writes")
	}
	db.CrashForTesting()

	db2, err := Open(Config{Dir: dir, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		v, ok, err := db2.Get(bg, spreadKey(uint64(i)))
		if err != nil || !ok || keys.DecodeUint64(v) != uint64(i) {
			t.Fatalf("sync write %d lost: %x %v %v", i, v, ok, err)
		}
	}
}
