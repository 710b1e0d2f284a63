package core

// initObs registers the memory component's own metrics in the Front's
// registry, which has no off switch. Every statCounters field IS a
// registered counter kv.Stats reads (the same atomics /metrics exports, so
// nothing double-counts). The op counters, op latency histograms and
// writer stall counters are the Front's, as are the views over the WAL's
// and the disk component's own atomics (registered when the Front opens over
// the disk component). The event log is threaded into storage and
// every WAL segment.
func (db *DB) initObs() {
	reg := db.Registry()
	s := &db.stats
	s.membufferHits = reg.StripedCounter("flodb_membuffer_hits_total", "Writes absorbed by the Membuffer fast path.")
	s.memtableWrites = reg.StripedCounter("flodb_memtable_writes_total", "Writes that took the direct-to-Memtable path.")
	s.drainedEntries = reg.Counter("flodb_drained_entries_total", "Entries drained Membuffer->Memtable.")
	s.drainBatches = reg.Counter("flodb_drain_batches_total", "Drain multi-insert batches.")
	s.persists = reg.Counter("flodb_persists_total", "Seal->drain->flush persist cycles.")
	s.inPlaceHits = reg.StripedCounter("flodb_inplace_hits_total", "Membuffer updates that overwrote a resident key in place.")

	reg.GaugeFunc("flodb_memtable_bytes", "Approximate live Memtable bytes.", func() int64 {
		if g := db.gen.Load(); g != nil {
			return g.mtb.approxBytes()
		}
		return 0
	})
}
