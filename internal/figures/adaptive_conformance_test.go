package figures

import "testing"

// TestConformanceWithAdaptiveMemory reruns the view- and durability-
// conformance suites UNMODIFIED with every FloDB engine (single and
// sharded) running the adaptive memory controller at a fast window:
// snapshots pinned across resize epochs, cancellation mid-scan while
// the split moves, checkpoints of a self-resizing store, per-op
// durability classes across a crash, Sync-barrier promotion, group
// commit, and crash prefix-consistency must all hold exactly as with a
// fixed split — a resize epoch is just a generation switch, and this
// test is the contract that keeps it one.
func TestConformanceWithAdaptiveMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns both conformance suites")
	}
	adaptiveFloDBForTest = true
	defer func() { adaptiveFloDBForTest = false }()

	t.Run("SnapshotIsolation", TestAllSystemsSnapshotIsolation)
	t.Run("ContextCanceledScan", TestAllSystemsContextCanceledScan)
	t.Run("IteratorPointInTime", TestAllSystemsIteratorPointInTime)
	t.Run("IteratorContract", TestAllSystemsIteratorContract)
	t.Run("CheckpointReopens", TestAllSystemsCheckpointReopens)
	t.Run("PerOpDurabilityClasses", TestAllSystemsPerOpDurabilityClasses)
	t.Run("SyncBarrierPromotesAcked", TestAllSystemsSyncBarrierPromotesAcked)
	t.Run("CrashMidStreamPrefix", TestAllSystemsCrashMidStreamPrefix)
}
