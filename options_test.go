package flodb_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"flodb"
	"flodb/internal/obs"
)

// TestOpenRejectsBadOptions: out-of-range option values fail Open with an
// error naming the option — never a silent clamp to the default.
func TestOpenRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  flodb.Option
		want string
	}{
		{"zero memory", flodb.WithMemory(0), "WithMemory"},
		{"negative memory", flodb.WithMemory(-4096), "WithMemory"},
		{"fraction zero", flodb.WithMembufferFraction(0), "WithMembufferFraction"},
		{"fraction one", flodb.WithMembufferFraction(1), "WithMembufferFraction"},
		{"fraction above one", flodb.WithMembufferFraction(1.5), "WithMembufferFraction"},
		{"partition bits 17", flodb.WithPartitionBits(17), "WithPartitionBits"},
		{"zero drain threads", flodb.WithDrainThreads(0), "WithDrainThreads"},
		{"negative drain threads", flodb.WithDrainThreads(-1), "WithDrainThreads"},
		{"invalid durability", flodb.WithDurability(flodb.Durability(99)), "WithDurability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := flodb.Open(t.TempDir(), tc.opt)
			if err == nil {
				db.Close()
				t.Fatal("bad option accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestOpenRejectsSyncDurabilityWithoutWAL: the two options contradict.
func TestOpenRejectsSyncDurabilityWithoutWAL(t *testing.T) {
	db, err := flodb.Open(t.TempDir(), flodb.WithoutWAL(), flodb.WithSync())
	if !errors.Is(err, flodb.ErrNotSupported) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("WithoutWAL + WithSync: err = %v, want ErrNotSupported", err)
	}
}

// TestPerOpDurabilityAndSyncBarrier drives the public durability surface:
// a dual-purpose option at Open and per-op, plus the Sync barrier closing
// the acked-vs-durable window reported by Stats.
func TestPerOpDurabilityAndSyncBarrier(t *testing.T) {
	db, err := flodb.Open(t.TempDir(), flodb.WithDurability(flodb.DurabilityBuffered))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put(bg, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(bg, []byte("b"), []byte("2"), flodb.WithSync()); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(bg, []byte("c"), []byte("3"), flodb.WithDurability(flodb.DurabilityNone)); err != nil {
		t.Fatal(err)
	}
	b := flodb.NewWriteBatch()
	b.Put([]byte("d"), []byte("4"))
	b.Put([]byte("e"), []byte("5"))
	if err := db.Apply(bg, b, flodb.WithSync()); err != nil {
		t.Fatal(err)
	}

	s := db.Stats()
	if s.AckedSeq == 0 || s.DurableSeq == 0 || s.DurableSeq > s.AckedSeq {
		t.Fatalf("boundary incoherent: %+v", s)
	}
	if s.WALSyncs == 0 {
		t.Fatal("sync-class writes issued no fsync")
	}

	if err := db.Put(bg, []byte("f"), []byte("6")); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(bg); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.DurableSeq != s.AckedSeq {
		t.Fatalf("Sync barrier left a window: durable %d < acked %d", s.DurableSeq, s.AckedSeq)
	}
	if s.SyncBarriers != 1 {
		t.Fatalf("SyncBarriers = %d, want 1", s.SyncBarriers)
	}

	// All five keys readable regardless of class.
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3", "d": "4", "e": "5", "f": "6"} {
		v, ok, err := db.Get(bg, []byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("get %q = %q %v %v", k, v, ok, err)
		}
	}
}

func TestWithShardsRejectsBadCounts(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := flodb.Open(t.TempDir(), flodb.WithShards(n)); err == nil {
			t.Fatalf("WithShards(%d) accepted", n)
		}
	}
	// WithShards(1) is the explicit spelling of the default.
	db, err := flodb.Open(t.TempDir(), flodb.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 1 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
}

// TestWithTelemetryOff checks the gate: histograms and events vanish,
// counters stay (kv.Stats is load-bearing), and re-enabling is just the
// default.
func TestWithTelemetryOff(t *testing.T) {
	ctx := context.Background()
	db, err := flodb.Open(t.TempDir(), flodb.WithTelemetry(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 20; i++ {
		if err := db.Put(ctx, []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if ops := obs.OpQuantiles(db.TelemetrySnapshot()); ops != nil {
		t.Fatalf("telemetry off still records op quantiles: %v", ops)
	}
	if evs := db.TelemetryEvents(0); len(evs) != 0 {
		t.Fatalf("telemetry off still emits events: %v", evs)
	}
	if st := db.Stats(); st.Puts != 20 {
		t.Fatalf("counters must survive WithTelemetry(false): Puts = %d", st.Puts)
	}

	on, err := flodb.Open(t.TempDir(), flodb.WithTelemetry(true))
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if err := on.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if ops := obs.OpQuantiles(on.TelemetrySnapshot()); ops["put"].Count != 1 {
		t.Fatalf("telemetry on records nothing: %v", ops)
	}
}
