package figures

import "testing"

// TestConformanceWithTinyCaches reruns the view- and durability-
// conformance suites UNMODIFIED with every store's read caches starved:
// a 1-byte block cache (no block ever admitted — each disk read misses,
// decodes, and immediately evicts) and a 2-handle table cache (every
// read past two tables closes and reopens readers behind the LRU).
// Snapshot isolation, cancellation, checkpoints, durability classes and
// crash prefix-consistency must hold bit-for-bit: the caches are a pure
// performance layer, and this rerun is the contract that keeps eviction
// and reader-reopen races out of the correctness paths. Run it under
// -race — the interesting failures here are pin/evict lifetime races,
// not wrong values.
func TestConformanceWithTinyCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns both conformance suites")
	}
	tinyCachesForTest = true
	defer func() { tinyCachesForTest = false }()

	t.Run("SnapshotIsolation", TestAllSystemsSnapshotIsolation)
	t.Run("ContextCanceledScan", TestAllSystemsContextCanceledScan)
	t.Run("IteratorPointInTime", TestAllSystemsIteratorPointInTime)
	t.Run("IteratorContract", TestAllSystemsIteratorContract)
	t.Run("CheckpointReopens", TestAllSystemsCheckpointReopens)
	t.Run("PerOpDurabilityClasses", TestAllSystemsPerOpDurabilityClasses)
	t.Run("SyncBarrierPromotesAcked", TestAllSystemsSyncBarrierPromotesAcked)
	t.Run("CrashMidStreamPrefix", TestAllSystemsCrashMidStreamPrefix)
}
