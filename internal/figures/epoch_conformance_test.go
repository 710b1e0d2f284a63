package figures

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"flodb/internal/kv"
)

// TestConformanceAcrossEpochChange reruns the view- and durability-
// conformance suites UNMODIFIED over stores whose memory component
// changes epoch mid-workload: every store is wrapped in an epochChurner,
// so snapshot isolation, cancellation mid-scan, checkpoints, per-op
// durability classes, the Sync barrier and crash prefix-consistency are
// all asserted against a store that crossed at least one epoch boundary
// while the suite ran. On FloDB an epoch boundary is the Membuffer seal
// (swap in an empty Membuffer, drain the old one into the Memtable) and
// the switch of in-place Memtable updates to version chaining and back.
// Both must be invisible to every contract the steady state honors.
func TestConformanceAcrossEpochChange(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns both conformance suites")
	}
	wrapStoreForTest = func(s kv.Store) kv.Store { return &epochChurner{Store: s} }
	defer func() { wrapStoreForTest = nil }()

	t.Run("SnapshotIsolation", TestAllSystemsSnapshotIsolation)
	t.Run("ContextCanceledScan", TestAllSystemsContextCanceledScan)
	t.Run("IteratorPointInTime", TestAllSystemsIteratorPointInTime)
	t.Run("IteratorContract", TestAllSystemsIteratorContract)
	t.Run("CheckpointReopens", TestAllSystemsCheckpointReopens)
	t.Run("PerOpDurabilityClasses", TestAllSystemsPerOpDurabilityClasses)
	t.Run("SyncBarrierPromotesAcked", TestAllSystemsSyncBarrierPromotesAcked)
	t.Run("CrashMidStreamPrefix", TestAllSystemsCrashMidStreamPrefix)
}

// epochChurner forces deterministic epoch changes into whatever workload
// runs over it, synchronously on the mutating goroutine: the 64th
// mutation opens a Snapshot and the 192nd closes it. On FloDB the open
// seals and drains the Membuffer and registers a sequence bound, which
// turns in-place Memtable overwrites into version chains; the close
// unregisters the bound, so the chains collapse on the next overwrite.
// Churn failures surface through the op that triggered them, so the
// suites report them instead of silently losing the forced epoch change.
type epochChurner struct {
	kv.Store
	ops  atomic.Uint64
	mu   sync.Mutex
	held kv.View
}

func (c *epochChurner) churn(ctx context.Context) error {
	switch c.ops.Add(1) {
	case 64:
		v, err := c.Store.Snapshot(ctx)
		if err != nil {
			return fmt.Errorf("figures: forced epoch change: %w", err)
		}
		c.mu.Lock()
		c.held = v
		c.mu.Unlock()
	case 192:
		return c.release()
	}
	return nil
}

func (c *epochChurner) release() error {
	c.mu.Lock()
	v := c.held
	c.held = nil
	c.mu.Unlock()
	if v == nil {
		return nil
	}
	if err := v.Close(); err != nil {
		return fmt.Errorf("figures: forced epoch change: %w", err)
	}
	return nil
}

func (c *epochChurner) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	if err := c.churn(ctx); err != nil {
		return err
	}
	return c.Store.Put(ctx, key, value, opts...)
}

func (c *epochChurner) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	if err := c.churn(ctx); err != nil {
		return err
	}
	return c.Store.Delete(ctx, key, opts...)
}

func (c *epochChurner) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if err := c.churn(ctx); err != nil {
		return err
	}
	return c.Store.Apply(ctx, b, opts...)
}

// Close releases a snapshot the churner still holds before closing the
// store under it.
func (c *epochChurner) Close() error {
	err := c.release()
	if cerr := c.Store.Close(); err == nil {
		err = cerr
	}
	return err
}

// CrashForTesting abandons the store, and with it any held snapshot.
func (c *epochChurner) CrashForTesting() { c.Store.(crasher).CrashForTesting() }

// Stats reports the wrapped store's counters.
func (c *epochChurner) Stats() kv.Stats { return c.Store.(kv.StatsProvider).Stats() }
