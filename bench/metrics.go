package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units, directions and bounds; manifest_test.go holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the store sees. Every workload emits every
// metric and none is ever 0, so "read" is the workload's read operation: a
// Get on ingest, readheavy and netmix, a 100-key scan on scanwrite.
//
// Every bound is the contract's cap. Ten runs of one commit on this
// sandbox spread 5-20 % on every one of these, whatever the statistic
// (README.md, results/spread.md); a tighter bound would reject changes for
// the box's own drift. No p99 is here for the same reason: the steadiest
// one spread 32 %, so they are client.* layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.25},
}

// perLayer comes from a traced run. Three sources: spans recorded at layer
// boundaries by the benchmark, differences of the program's own counters
// over the window, and a standalone replay of the op stream through each
// layer's public functions. A metric a workload does not exercise is 0.
var perLayer = []metricDef{
	// Spans and raw client samples.
	{"client.put_p99_us", "us", "lower", 0},
	{"client.read_p99_us", "us", "lower", 0},
	{"client.put_p999_us", "us", "lower", 0},
	{"client.get_p999_us", "us", "lower", 0},
	{"client.scan_p999_us", "us", "lower", 0},
	{"client.op_max_us", "us", "lower", 0},
	{"client.gen_lag_ms_max", "ms", "lower", 0},
	{"client.scan_keys_per_s", "keys/s", "higher", 0},
	{"server.hop_us_p50", "us", "lower", 0},
	{"server.hop_us_p99", "us", "lower", 0},
	{"server.engine_share", "ratio", "higher", 0},
	{"core.put_us_p50", "us", "lower", 0},
	{"core.get_us_p50", "us", "lower", 0},
	{"core.iter_open_us_p50", "us", "lower", 0},
	{"core.iter_next_ns_p50", "ns", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	// Counter differences over the window.
	{"membuffer.hit_share", "ratio", "higher", 0},
	{"core.stall_share", "ratio", "lower", 0},
	{"core.scan_restarts_per_scan", "count", "lower", 0},
	{"core.fallback_scans_per_scan", "count", "lower", 0},
	{"storage.flushes", "count", "lower", 0},
	{"storage.compactions", "count", "lower", 0},
	{"storage.write_amp", "ratio", "lower", 0},
	{"storage.space_amp", "ratio", "lower", 0},
	{"storage.sst_files_max", "count", "lower", 0},
	{"cache.block_hit_rate", "ratio", "higher", 0},
	{"cache.block_evictions", "count", "lower", 0},
	{"cache.table_hit_rate", "ratio", "higher", 0},
	{"sstable.bloom_reject_rate", "ratio", "higher", 0},
	{"sstable.blocks_read_per_get", "count", "lower", 0},
	{"wal.bytes_per_put", "bytes", "lower", 0},
	{"wal.syncs", "count", "lower", 0},
	{"server.requests", "count", "higher", 0},
	{"server.bytes_per_op", "bytes", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	// Layer replay.
	{"membuffer.put_ns_p50", "ns", "lower", 0},
	{"membuffer.get_ns_p50", "ns", "lower", 0},
	{"membuffer.inplace_share", "ratio", "higher", 0},
	{"membuffer.drain_ns_per_entry", "ns", "lower", 0},
	{"skiplist.insert_ns_p50", "ns", "lower", 0},
	{"skiplist.multiinsert_ns_per_key", "ns", "lower", 0},
	{"skiplist.get_ns_p50", "ns", "lower", 0},
	{"skiplist.iter_next_ns", "ns", "lower", 0},
	{"wal.append_ns_p50", "ns", "lower", 0},
	{"wal.syncto_us_p50", "us", "lower", 0},
	{"sstable.write_mb_per_s", "MB/s", "higher", 0},
	{"sstable.get_hit_ns_p50", "ns", "lower", 0},
	{"sstable.get_miss_ns_p50", "ns", "lower", 0},
	{"sstable.iter_next_ns", "ns", "lower", 0},
	{"cache.get_ns_p50", "ns", "lower", 0},
	{"cache.insert_ns_p50", "ns", "lower", 0},
	{"wire.request_roundtrip_ns", "ns", "lower", 0},
	{"wire.response_roundtrip_ns", "ns", "lower", 0},
	{"wire.pairs_ns_per_key", "ns", "lower", 0},
	{"storage.get_us_p50", "us", "lower", 0},
	{"storage.iter_next_ns", "ns", "lower", 0},
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// complete reports the first metric of defs that res lacks, or that is not
// a usable number.
func complete(res *result, defs []metricDef, nonZero bool) error {
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("workload %s: metric %s was not measured", res.Workload, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("workload %s: metric %s is %v", res.Workload, d.Name, v)
		case nonZero && v <= 0:
			return fmt.Errorf("workload %s: metric %s is %v, want > 0", res.Workload, d.Name, v)
		}
	}
	return nil
}

func pctl(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

// clientMetrics are the client.* metrics and the tracing overhead, taken
// from the raw samples of a traced run's whole window: the tails, p99
// included, too unsteady to carry a bound end to end.
func (r *run) clientMetrics(m map[string]float64, put, read dist, rates []float64) {
	m["client.put_p99_us"] = put.quantile(0.99) / 1e3
	m["client.read_p99_us"] = read.quantile(0.99) / 1e3
	m["client.put_p999_us"] = put.quantile(0.999) / 1e3
	m["client.get_p999_us"], m["client.scan_p999_us"], m["client.scan_keys_per_s"] = 0, 0, 0
	if r.spec.writeRate > 0 {
		m["client.scan_p999_us"] = read.quantile(0.999) / 1e3
		m["client.scan_keys_per_s"] = median(rates) * scanLen
	} else {
		m["client.get_p999_us"] = read.quantile(0.999) / 1e3
	}
	m["client.op_max_us"] = float64(max(put.max, read.max)) / 1e3
	var lag int64
	for _, c := range r.clients {
		lag = max(lag, c.lagMax)
	}
	m["client.gen_lag_ms_max"] = float64(lag) / 1e6
	// Same run, same store, alternating slices: the typical rate with span
	// recording on against the typical rate with it off.
	var on, off []float64
	for i, rate := range rates {
		if r.recording(i) {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	m["obs.trace_overhead_pct"] = 100 * (1 - ratio(median(on), median(off)))
}

// spanMetrics writes the span file and derives the boundary metrics.
func (r *run) spanMetrics(m map[string]float64) error {
	var all []span
	for _, c := range r.clients {
		all = append(all, c.log.spans...)
	}
	if err := writeSpans(filepath.Join(r.cfg.outDir, "trace-"+r.spec.name+".jsonl"), all); err != nil {
		return err
	}
	st := collectSpans(all)
	m["server.hop_us_p50"] = pctl(st.hop, 0.50) / 1e3
	m["server.hop_us_p99"] = pctl(st.hop, 0.99) / 1e3
	m["server.engine_share"] = st.engShare
	// The engine's own time for a Put or Get: the server's call into it on
	// netmix, the client's call elsewhere (there is nothing in between).
	putSpan, getSpan := spanClientPut, spanClientGet
	if r.spec.net {
		putSpan, getSpan = spanEnginePut, spanEngineGet
	}
	m["core.put_us_p50"] = pctl(st.dur[putSpan], 0.50) / 1e3
	m["core.get_us_p50"] = pctl(st.dur[getSpan], 0.50) / 1e3
	m["core.iter_open_us_p50"] = pctl(st.dur[spanIterOpen], 0.50) / 1e3
	m["core.iter_next_ns_p50"] = pctl(st.nextStep, 0.50)
	return nil
}
