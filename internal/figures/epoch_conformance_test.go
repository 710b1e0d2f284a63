package figures

import "testing"

// TestConformanceAcrossEpochChange reruns the view- and durability-
// conformance suites UNMODIFIED over the dynamic sharded engine: the
// rebalance controller is live and every store additionally performs
// one forced split and one forced merge mid-workload (epochChurner), so
// snapshot isolation, cancellation mid-scan, checkpoints, per-op
// durability classes, the Sync barrier, group commit and crash
// prefix-consistency are all asserted against a store whose topology
// crossed at least one epoch boundary while the suite ran. A topology
// rewrite must be invisible to every contract the static layout
// honors — this test is what keeps it invisible.
func TestConformanceAcrossEpochChange(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns both conformance suites")
	}
	dynamicShardForTest = true
	defer func() { dynamicShardForTest = false }()

	t.Run("SnapshotIsolation", TestAllSystemsSnapshotIsolation)
	t.Run("ContextCanceledScan", TestAllSystemsContextCanceledScan)
	t.Run("IteratorPointInTime", TestAllSystemsIteratorPointInTime)
	t.Run("CheckpointReopens", TestAllSystemsCheckpointReopens)
	t.Run("PerOpDurabilityClasses", TestAllSystemsPerOpDurabilityClasses)
	t.Run("SyncBarrierPromotesAcked", TestAllSystemsSyncBarrierPromotesAcked)
	t.Run("CrashMidStreamPrefix", TestAllSystemsCrashMidStreamPrefix)
}
