package core

import (
	"errors"
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

// TestDropPersistRejectsLoggedDurability: a store without a disk
// component has no log, so it cannot promise a logged class — neither as
// its default nor per operation. Its default resolves to None, and the
// Sync barrier has nothing to promote.
func TestDropPersistRejectsLoggedDurability(t *testing.T) {
	for _, d := range []kv.Durability{kv.DurabilityBuffered, kv.DurabilitySync} {
		cfg := Config{MemoryBytes: 1 << 20, DropPersist: true, Durability: d}
		if db, err := Open(cfg); !errors.Is(err, kv.ErrNotSupported) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("DropPersist + default %v: err = %v, want ErrNotSupported", d, err)
		}
	}
	db, err := Open(Config{MemoryBytes: 1 << 20, DropPersist: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put(bg, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("default put: %v", err)
	}
	for _, d := range []kv.Durability{kv.DurabilityBuffered, kv.DurabilitySync} {
		if err := db.Put(bg, []byte("k"), []byte("v"), kv.WithDurability(d)); !errors.Is(err, kv.ErrNotSupported) {
			t.Fatalf("%v put: err = %v, want ErrNotSupported", d, err)
		}
	}
	b := kv.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := db.Apply(bg, b, kv.WithSync()); !errors.Is(err, kv.ErrNotSupported) {
		t.Fatalf("Sync batch: err = %v, want ErrNotSupported", err)
	}
	if err := db.Sync(bg); err != nil {
		t.Fatalf("Sync barrier: %v", err)
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
