package flodb_test

import (
	"context"
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

// TestTelemetryAlwaysOn: a default store records per-op latency
// histograms and keeps an event log, beside the counters.
func TestTelemetryAlwaysOn(t *testing.T) {
	ctx := context.Background()
	db, err := flodb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if ops := obs.OpQuantiles(db.TelemetrySnapshot()); ops["put"].Count != 1 {
		t.Fatalf("telemetry records nothing: %v", ops)
	}
	if evs := db.TelemetryEvents(0); evs == nil {
		t.Fatal("no event log")
	}
	if st := db.Stats(); st.Puts != 1 {
		t.Fatalf("Puts = %d, want 1", st.Puts)
	}
}
