package core

import (
	"flodb/internal/kv"
	"flodb/internal/obs"
)

// initObs builds the DB's observability layer, which has no off switch.
// Every statCounters field IS a registered metric — a counter kv.Stats
// reads (the same atomics /metrics exports, so nothing double-counts) or
// a latency histogram (every op pays two reads of the monotonic clock,
// opClock). The views over the WAL's and the disk component's own
// atomics are registered by Open once the disk component exists
// (storage.RegisterMetrics). The event log is threaded into storage and
// every WAL segment.
func (db *DB) initObs() {
	reg := obs.NewRegistry()
	db.reg = reg
	db.events = obs.NewEventLog(0)
	s := &db.stats
	s.OpCounters = kv.NewOpCounters(reg)
	s.membufferHits = reg.StripedCounter("flodb_membuffer_hits_total", "Writes absorbed by the Membuffer fast path.")
	s.memtableWrites = reg.StripedCounter("flodb_memtable_writes_total", "Writes that took the direct-to-Memtable path.")
	s.drainedEntries = reg.Counter("flodb_drained_entries_total", "Entries drained Membuffer->Memtable.")
	s.drainBatches = reg.Counter("flodb_drain_batches_total", "Drain multi-insert batches.")
	s.persists = reg.Counter("flodb_persists_total", "Seal->drain->flush persist cycles.")
	s.stallNanos = reg.Counter("flodb_write_stall_nanoseconds_total", "Writer time stalled on seals, memory backpressure and L0 backlog.")
	for c, name := range stallCauseNames {
		s.stallByCause[c] = reg.Counter(`flodb_write_stall_by_cause_nanoseconds_total{cause="`+name+`"}`,
			"Writer stall time by cause: seal (a seal's grace period), memtable (Memtable full) or l0 (L0 backlog).")
	}
	s.inPlaceHits = reg.StripedCounter("flodb_inplace_hits_total", "Membuffer updates that overwrote a resident key in place.")

	reg.GaugeFunc("flodb_memtable_bytes", "Approximate live Memtable bytes.", func() int64 {
		if g := db.gen.Load(); g != nil {
			return g.mtb.approxBytes()
		}
		return 0
	})

	opHist := func(op string) *obs.Histogram {
		return reg.Histogram(`flodb_op_latency_seconds{op="`+op+`"}`, "Operation latency by op.")
	}
	s.putLat = opHist("put")
	s.getLat = opHist("get")
	s.deleteLat = opHist("delete")
	s.scanLat = opHist("scan")
	s.batchLat = opHist("batch")
	s.snapLat = opHist("snapshot")
	s.stallLat = reg.Histogram("flodb_write_stall_seconds", "Per-op writer stall time on drains and backpressure.")
}

// TelemetrySnapshot freezes the metrics registry plus per-type event
// counts — the /metrics source and, through kv.StatsOf, Stats'.
func (db *DB) TelemetrySnapshot() obs.Snapshot {
	s := db.reg.Snapshot()
	s.Metrics = append(s.Metrics, obs.EventCountMetrics(db.events)...)
	return s
}

// TelemetryEvents returns up to n recent structured events (n <= 0:
// all retained).
func (db *DB) TelemetryEvents(n int) []obs.Event {
	return db.events.Recent(n)
}
