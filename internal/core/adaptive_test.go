package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// TestAdaptiveConfigValidation rejects out-of-range adaptive knobs with
// descriptive errors, never clamping.
func TestAdaptiveConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Dir: t.TempDir(), AdaptiveMemory: true}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"min negative", func(c *Config) { c.AdaptiveMinFraction = -0.1 }},
		{"max >= 1", func(c *Config) { c.AdaptiveMaxFraction = 1.0 }},
		{"min >= max", func(c *Config) { c.AdaptiveMinFraction = 0.5; c.AdaptiveMaxFraction = 0.3 }},
		{"start outside range", func(c *Config) { c.MembufferFraction = 0.8 }},
		{"negative window", func(c *Config) { c.AdaptiveWindow = -time.Second }},
		{"membuffer disabled", func(c *Config) { c.DisableMembuffer = true }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// The valid default shape opens, reports the starting fraction, and
	// resolves the documented defaults.
	cfg := base()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if f := db.Stats().MembufferFraction; f != 0.25 {
		t.Fatalf("starting fraction %v, want 0.25", f)
	}
}

// TestSetMembufferFraction exercises the manual resize epoch: data
// written before a resize stays readable through it, the fraction and
// resize count are reported, and writes keep landing afterwards.
func TestSetMembufferFraction(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), MemoryBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	if err := db.SetMembufferFraction(1.5); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}

	n := 500
	for i := 0; i < n; i++ {
		if err := db.Put(ctx, keys.EncodeUint64(uint64(i)), keys.EncodeUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []float64{0.6, 0.05, 0.3} {
		if err := db.SetMembufferFraction(f); err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().MembufferFraction; got != f {
			t.Fatalf("fraction %v after SetMembufferFraction(%v)", got, f)
		}
	}
	if got := db.Stats().MembufferResizes; got != 3 {
		t.Fatalf("resizes %d, want 3", got)
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get(ctx, keys.EncodeUint64(uint64(i)))
		if err != nil || !ok || string(v) != string(keys.EncodeUint64(uint64(i))) {
			t.Fatalf("key %d lost across resizes (ok=%v err=%v)", i, ok, err)
		}
	}
	// Writes after the final shrink land normally.
	if err := db.Put(ctx, []byte("after"), []byte("resize")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(ctx, []byte("after")); !ok {
		t.Fatal("write after resize lost")
	}
}

// TestSetMembufferFractionDisabled reports ErrNotSupported on the No-HT
// ablation configuration.
func TestSetMembufferFractionDisabled(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), DisableMembuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.SetMembufferFraction(0.5); err == nil {
		t.Fatal("resize accepted with the membuffer disabled")
	}
}

// TestResizeEpochsConcurrentOps is the -race workhorse of the resize
// satellite: writers (Put), batch appliers (Apply) and scanners (Scan)
// run full-tilt while the membuffer is shrunk and grown repeatedly.
// Every acknowledged write must be visible afterwards — a resize epoch
// reuses the immutable-Membuffer drain path, so losing an entry across
// the seal would show up here.
func TestResizeEpochsConcurrentOps(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), MemoryBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	const (
		writers  = 3
		perWrite = 400
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var passes [writers]atomic.Uint64
	errs := make(chan error, writers+2)

	// Writers: disjoint key ranges, value == key, cycling until the
	// resizer has done its epochs; thread 2 uses batches so Apply's
	// drainMu path races the resize epochs too.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < perWrite; i++ {
					k := keys.EncodeUint64(uint64(w)<<32 | uint64(i))
					if w == 2 {
						b := kv.NewBatch()
						b.Put(k, k)
						if err := db.Apply(ctx, b); err != nil {
							errs <- err
							return
						}
					} else if err := db.Put(ctx, k, k); err != nil {
						errs <- err
						return
					}
				}
				passes[w].Add(1)
			}
		}(w)
	}
	// Scanner: consistent reads while epochs switch generations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := db.Scan(ctx, nil, nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Resizer: sweep the epochs across the full range. The pause
	// between epochs matters on small machines — back-to-back epochs
	// keep writers permanently paused (they make progress only by
	// helping drains), which is livelock-adjacent, not a data race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		fracs := []float64{0.05, 0.6, 0.1, 0.45, 0.25}
		for i := 0; !stop.Load(); i++ {
			if err := db.SetMembufferFraction(fracs[i%len(fracs)]); err != nil {
				errs <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Run until every writer finished a full pass AND several resize
	// epochs actually interleaved with the traffic.
	deadline := time.After(120 * time.Second)
	for {
		ready := db.Stats().MembufferResizes >= 6
		for w := 0; w < writers; w++ {
			ready = ready && passes[w].Load() >= 1
		}
		if ready {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("no interleaving: resizes=%d passes=%v %v %v",
				db.Stats().MembufferResizes, passes[0].Load(), passes[1].Load(), passes[2].Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	stop.Store(true)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	for w := 0; w < writers; w++ {
		for i := 0; i < perWrite; i++ {
			k := keys.EncodeUint64(uint64(w)<<32 | uint64(i))
			if _, ok, err := db.Get(ctx, k); err != nil || !ok {
				t.Fatalf("writer %d key %d lost (ok=%v err=%v), %d resizes",
					w, i, ok, err, db.Stats().MembufferResizes)
			}
		}
	}
	if db.Stats().MembufferResizes == 0 {
		t.Fatal("no resize epoch ever ran")
	}
}

// TestResizeRacesPersist shrinks and grows the membuffer while the
// persister constantly seals and flushes (tiny memory budget), with the
// WAL on; the store is then closed and reopened to prove recovery sees
// a consistent prefix — a resize epoch must never strand entries
// outside the WAL-truncation invariant.
func TestResizeRacesPersist(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, MemoryBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; !stop.Load(); i++ {
			f := 0.05 + 0.55*rng.Float64()
			if err := db.SetMembufferFraction(f); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	const n = 3000
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := db.Put(ctx, keys.EncodeUint64(uint64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	st := db.Stats()
	if st.Flushes == 0 {
		t.Fatal("memory budget too large: persist path never exercised")
	}
	if st.MembufferResizes == 0 {
		t.Fatal("resize path never exercised")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir, MemoryBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < n; i++ {
		if _, ok, err := re.Get(ctx, keys.EncodeUint64(uint64(i))); err != nil || !ok {
			t.Fatalf("key %d lost across resize+persist+reopen (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestAdaptiveControllerConverges drives the controller's two poles:
// a skewed write burst must grow the fraction, a scan storm must
// shrink it to (near) the floor. Bounds are asserted loosely — the
// controller's exact trajectory is load-dependent — but the DIRECTION
// is the §4.4 contract.
func TestAdaptiveControllerConverges(t *testing.T) {
	db, err := Open(Config{
		Dir:            t.TempDir(),
		MemoryBytes:    1 << 20,
		AdaptiveMemory: true,
		AdaptiveWindow: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	// Phase 1: skewed overwrite burst (working set resident in the
	// buffer) — fraction should rise above the 0.25 start. The keys are
	// SPREAD over the 64-bit space (clustered keys would pile into one
	// Membuffer partition, §4.3, and never register as resident).
	val := make([]byte, 64)
	// The sensor publishes the LAST window's rates, and a window that
	// closes right after a resize epoch is empty, so "rates were
	// published" is sampled while the load runs, not once at the end.
	published := false
	stats := func() kv.Stats {
		s := db.Stats()
		published = published || s.SensorScanRate > 0 || s.SensorPutRate > 0
		return s
	}
	waitFor(t, "fraction rise under write burst", func() bool {
		for i := 0; i < 2000; i++ {
			k := keys.EncodeUint64(uint64(i%512) * 0x9e3779b97f4a7c15)
			if err := db.Put(ctx, k, val); err != nil {
				t.Fatal(err)
			}
		}
		return stats().MembufferFraction > 0.3
	})

	// Phase 2: scan storm — fraction should fall to near the floor.
	waitFor(t, "fraction fall under scans", func() bool {
		for i := 0; i < 20; i++ {
			if _, err := db.Scan(ctx, nil, keys.EncodeUint64(64)); err != nil {
				t.Fatal(err)
			}
		}
		return stats().MembufferFraction < 0.15
	})

	if stats().MembufferResizes == 0 {
		t.Fatal("controller never resized")
	}
	if !published {
		t.Fatal("sensor window rates never published")
	}
}

func waitFor(t *testing.T, what string, step func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !step() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResizeRacesSnapshot pins a Snapshot, then resizes underneath it:
// the snapshot's repeatable reads must not move, while the live store
// keeps serving fresh data.
func TestResizeRacesSnapshot(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), MemoryBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	key := []byte("pinned")
	if err := db.Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	if err := db.SetMembufferFraction(0.6); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMembufferFraction(0.05); err != nil {
		t.Fatal(err)
	}

	v, ok, err := snap.Get(ctx, key)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("snapshot read %q/%v/%v across resizes, want v1", v, ok, err)
	}
	v, ok, err = db.Get(ctx, key)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("live read %q/%v/%v after resizes, want v2", v, ok, err)
	}
}
