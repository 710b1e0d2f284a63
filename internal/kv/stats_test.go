package kv_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"flodb/internal/baseline"
	"flodb/internal/core"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/server"
)

func TestStatsOfSumsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(`flodbd_requests_total{op="put"}`, "").Add(3)
	reg.Counter(`flodbd_requests_total{op="get"}`, "").Add(4)
	reg.Gauge("flodb_block_cache_bytes", "").Set(4096)
	reg.Gauge("flodbd_conns_open", "").Set(2)
	reg.Histogram(`flodb_op_latency_seconds{op="put"}`, "").Observe(1)
	reg.Counter("flodb_unmapped_total", "").Add(9)
	a := reg.Snapshot()
	st := kv.StatsOf(obs.Merge(a, a))
	want := kv.Stats{ServerRequests: 14, BlockCacheBytes: 8192, ServerConnsOpen: 4}
	if st != want {
		t.Fatalf("StatsOf = %+v, want %+v", st, want)
	}
	if st := kv.StatsOf(obs.Snapshot{}); st != (kv.Stats{}) {
		t.Fatalf("StatsOf of an empty snapshot = %+v, want zero", st)
	}
}

// TestStatsTableCoversEveryField fails when a kv.Stats field has no
// metric in StatsOf's table (its `metric` tag), when two fields name one
// metric, or when the table names a metric that none of the registries
// (core, baseline, server) registers — each would leave a field
// silently reading 0.
func TestStatsTableCoversEveryField(t *testing.T) {
	retired := map[string]bool{"ScanRestarts": true, "FallbackScans": true}
	table := map[string]string{} // metric family -> field
	for _, f := range reflect.VisibleFields(reflect.TypeOf(kv.Stats{})) {
		fam := f.Tag.Get("metric")
		if (fam == "") != retired[f.Name] {
			t.Errorf("kv.Stats.%s: metric %q, retired %v", f.Name, fam, retired[f.Name])
		}
		if prev, ok := table[fam]; ok && fam != "" {
			t.Errorf("%s fills both %s and %s", fam, prev, f.Name)
		}
		table[fam] = f.Name
	}
	delete(table, "")

	registered := map[string]bool{}
	for _, s := range registrySnapshots(t) {
		for _, m := range s.Metrics {
			registered[obs.Family(m.Name)] = true
		}
	}
	for fam := range table {
		if !registered[fam] {
			t.Errorf("%s is registered by no registry among core, baseline and server", fam)
		}
	}
}

// registrySnapshots opens one of each metrics source: a FloDB engine, a
// baseline and a server over the engine.
func registrySnapshots(t *testing.T) []obs.Snapshot {
	dir := t.TempDir()
	db, err := core.Open(core.Config{Dir: filepath.Join(dir, "core"), MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base, err := baseline.NewLevelDB(baseline.Config{Dir: filepath.Join(dir, "leveldb"), MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	srv := server.New(server.Config{Store: db})
	defer srv.Close()
	return []obs.Snapshot{db.TelemetrySnapshot(), base.TelemetrySnapshot(), srv.TelemetrySnapshot()}
}
