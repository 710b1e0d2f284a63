package kv

import (
	"reflect"

	"flodb/internal/obs"
)

// Stats are point-in-time counters exposed by stores for the harness.
// A Stats is a view of a metrics snapshot (StatsOf), never a second set of
// counts: each field is the sum of the metric family its `metric` tag
// names, so Stats, /metrics and OpTelemetry read the same numbers.
type Stats struct {
	Puts    uint64 `metric:"flodb_puts_total"`
	Gets    uint64 `metric:"flodb_gets_total"`
	Deletes uint64 `metric:"flodb_deletes_total"`
	Scans   uint64 `metric:"flodb_scans_total"`
	// Batches counts Apply calls; BatchOps the mutations they carried.
	Batches  uint64 `metric:"flodb_batches_total"`
	BatchOps uint64 `metric:"flodb_batch_ops_total"`
	// Iterators counts NewIterator calls.
	Iterators uint64 `metric:"flodb_iterators_total"`
	// Snapshots counts Snapshot calls; Checkpoints counts Checkpoint calls.
	Snapshots   uint64 `metric:"flodb_snapshots_total"`
	Checkpoints uint64 `metric:"flodb_checkpoints_total"`
	// ScanRestarts and FallbackScans are retired and always 0. They
	// counted Algorithm 3's restart-on-conflict and writer-blocking
	// fallback (§4.4); range reads now resolve sequence-bounded version
	// chains and never restart. The fields remain because the benchmark
	// in bench/ reads them.
	ScanRestarts   uint64
	FallbackScans  uint64
	MembufferHits  uint64 `metric:"flodb_membuffer_hits_total"`  // updates completed in the Membuffer
	MemtableWrites uint64 `metric:"flodb_memtable_writes_total"` // updates that fell through to the Memtable
	Flushes        uint64 `metric:"flodb_flushes_total"`
	Compactions    uint64 `metric:"flodb_compactions_total"`

	// Read-path caching (internal/cache; the block cache's counters read
	// zero when it is disabled). Point reads fill the BlockCache with the rows they found,
	// keyed by (file, key hash); iterators and compaction neither fill nor
	// consult it; the name is historical (it held blocks). A miss is one
	// block read from a table. The table cache holds open sstable readers
	// (one fd each). BloomChecks counts bloom-filter consultations on the
	// disk read path and BloomMisses the reads a filter proved absent —
	// MissRate = BloomMisses/BloomChecks is the fraction of disk probes
	// the filters short-circuited.
	BlockCacheHits      uint64 `metric:"flodb_block_cache_hits_total"`
	BlockCacheMisses    uint64 `metric:"flodb_block_cache_misses_total"`
	BlockCacheEvictions uint64 `metric:"flodb_block_cache_evictions_total"`
	BlockCacheBytes     int64  `metric:"flodb_block_cache_bytes"`
	TableCacheHits      uint64 `metric:"flodb_table_cache_hits_total"`
	TableCacheMisses    uint64 `metric:"flodb_table_cache_misses_total"`
	BloomChecks         uint64 `metric:"flodb_bloom_checks_total"`
	BloomMisses         uint64 `metric:"flodb_bloom_negatives_total"`

	// The acked-vs-durable boundary, in commit-log order. AckedSeq is the
	// commit index of the last acknowledged logged record; DurableSeq is
	// the highest commit index known crash-durable (fsync-covered, or in
	// a generation whose contents reached sstables). Records in
	// (DurableSeq, AckedSeq] are the buffered window a crash can lose and
	// Sync closes; DurabilityNone writes are never logged and appear in
	// neither counter. Both are session-relative (reset at Open).
	AckedSeq   uint64 `metric:"flodb_wal_appends_total"`
	DurableSeq uint64 `metric:"flodb_wal_durable_total"`
	// WALSyncs counts fsyncs issued by the group-commit queue;
	// WALSyncRequests counts the durability requests they served. Their
	// ratio is the group-commit coalescing factor: requests/fsyncs > 1
	// means one disk barrier acknowledged many writers.
	WALSyncs        uint64 `metric:"flodb_wal_syncs_total"`
	WALSyncRequests uint64 `metric:"flodb_wal_sync_requests_total"`
	// SyncBarriers counts Store.Sync calls.
	SyncBarriers uint64 `metric:"flodb_sync_barriers_total"`

	// Service-tier observability (flodbd; zero on in-process stores),
	// read by the remote client from the server's registry: open/lifetime
	// connection counts, requests currently executing, lifetime request
	// (all opcodes) and byte totals, and requests that exceeded the
	// server's slow-request threshold.
	ServerConnsOpen    uint64 `metric:"flodbd_conns_open"`
	ServerConnsTotal   uint64 `metric:"flodbd_conns_total"`
	ServerInFlight     uint64 `metric:"flodbd_requests_in_flight"`
	ServerRequests     uint64 `metric:"flodbd_requests_total"`
	ServerBytesIn      uint64 `metric:"flodbd_bytes_in_total"`
	ServerBytesOut     uint64 `metric:"flodbd_bytes_out_total"`
	ServerSlowRequests uint64 `metric:"flodbd_slow_requests_total"`
}

// StatsProvider is implemented by stores that report Stats.
type StatsProvider interface {
	Stats() Stats
}

// statsFields maps each metric family to the index of the Stats field
// whose `metric` tag names it. The tags are the one place the mapping is
// written down: every Stats outside tests is StatsOf of a snapshot.
var statsFields = func() map[string]int {
	fields := map[string]int{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Stats{})) {
		if fam := f.Tag.Get("metric"); fam != "" {
			fields[fam] = f.Index[0]
		}
	}
	return fields
}()

// StatsOf reads Stats off a metrics snapshot. Each field is the sum of
// the counters or gauges of its family, so a labelled family
// (flodbd_requests_total{op=…}) sums over its labels; a family missing
// from the snapshot reads 0, and histograms are ignored.
func StatsOf(s obs.Snapshot) Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for _, m := range s.Metrics {
		i, ok := statsFields[obs.Family(m.Name)]
		if !ok || m.Kind == obs.KindHistogram {
			continue
		}
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + m.Value)
		} else {
			f.SetUint(f.Uint() + uint64(m.Value))
		}
	}
	return st
}

// OpCounters count the kv.Store calls every store reports in Stats, under
// the metric names StatsOf reads. The counters every Put, Get or Delete
// bumps are striped (obs.StripedCounter).
type OpCounters struct {
	Puts, Gets, Deletes                  *obs.StripedCounter
	Scans, Batches, BatchOps, Iterators  *obs.Counter
	Snapshots, Checkpoints, SyncBarriers *obs.Counter
}

// NewOpCounters registers the operation counters in reg.
func NewOpCounters(reg *obs.Registry) OpCounters {
	return OpCounters{
		Puts:         reg.StripedCounter("flodb_puts_total", "Put operations."),
		Gets:         reg.StripedCounter("flodb_gets_total", "Get operations."),
		Deletes:      reg.StripedCounter("flodb_deletes_total", "Delete operations."),
		Scans:        reg.Counter("flodb_scans_total", "Scan operations."),
		Batches:      reg.Counter("flodb_batches_total", "Atomic batches applied."),
		BatchOps:     reg.Counter("flodb_batch_ops_total", "Operations inside applied batches."),
		Iterators:    reg.Counter("flodb_iterators_total", "Iterators opened."),
		Snapshots:    reg.Counter("flodb_snapshots_total", "Snapshots taken."),
		Checkpoints:  reg.Counter("flodb_checkpoints_total", "Checkpoints taken."),
		SyncBarriers: reg.Counter("flodb_sync_barriers_total", "Explicit Sync durability barriers."),
	}
}
