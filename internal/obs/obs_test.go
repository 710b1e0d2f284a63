package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistrySnapshotAndMerge(t *testing.T) {
	mk := func(puts uint64) Snapshot {
		r := NewRegistry()
		r.Counter("flodb_puts_total", "Put operations.").Add(puts)
		r.Gauge("flodb_mem_bytes", "Memory component bytes.").Set(100)
		r.CounterFunc("flodb_flushes_total", "Flushes.", func() uint64 { return 3 })
		h := r.Histogram(`flodb_op_latency_seconds{op="put"}`, "Op latency.")
		h.Observe(time.Millisecond)
		return r.Snapshot()
	}
	m := Merge(mk(5), mk(7))
	byName := map[string]Metric{}
	for _, mt := range m.Metrics {
		byName[mt.Name] = mt
	}
	if v := byName["flodb_puts_total"].Value; v != 12 {
		t.Fatalf("merged counter %d, want 12", v)
	}
	if v := byName["flodb_mem_bytes"].Value; v != 200 {
		t.Fatalf("merged gauge %d, want 200 (gauges sum across shards)", v)
	}
	if h := byName[`flodb_op_latency_seconds{op="put"}`].Hist; h == nil || h.Count != 2 {
		t.Fatalf("merged histogram: %+v", h)
	}
	// Re-registering the same name returns the same metric; a kind clash
	// panics.
	r := NewRegistry()
	c1 := r.Counter("x", "")
	c2 := r.Counter("x", "")
	if c1 != c2 {
		t.Fatal("same-name counter not shared")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind clash did not panic")
			}
		}()
		r.Gauge("x", "")
	}()
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("flodb_puts_total", "Put operations.").Add(42)
	r.Gauge("flodb_mem_bytes", "Bytes.").Set(1 << 20)
	for _, op := range []string{"put", "get", "scan", "snapshot"} {
		h := r.Histogram(fmt.Sprintf(`flodb_op_latency_seconds{op=%q}`, op), "Op latency.")
		for i := 1; i <= 100; i++ {
			h.Observe(time.Duration(i) * 10 * time.Microsecond)
		}
	}
	snap := Merge(r.Snapshot(), Snapshot{Metrics: EventCountMetrics(func() *EventLog {
		l := NewEventLog(8)
		l.Emit(Event{Type: EventFlush})
		l.Emit(Event{Type: EventFlush})
		l.Emit(Event{Type: EventCompaction})
		return l
	}())})
	var buf strings.Builder
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	for _, want := range []string{"flodb_puts_total", "flodb_mem_bytes", "flodb_op_latency_seconds", "flodb_events_total"} {
		if fams[want] == nil {
			t.Errorf("family %s missing from exposition; have %v", want, FamilyNames(fams))
		}
	}
	if fams["flodb_op_latency_seconds"].Type != "histogram" {
		t.Fatalf("op latency family type %q", fams["flodb_op_latency_seconds"].Type)
	}
	// One HELP/TYPE block per family even with four labeled series.
	if n := strings.Count(text, "# TYPE flodb_op_latency_seconds "); n != 1 {
		t.Fatalf("TYPE emitted %d times for the labeled family", n)
	}
	if !strings.Contains(text, `flodb_op_latency_seconds_bucket{op="put",le="+Inf"}`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
	if !strings.Contains(text, `flodb_events_total{type="flush"} 2`) {
		t.Fatalf("missing event counts:\n%s", text)
	}
}

// TestEventLogTruncation checks ring-buffer truncation ordering: when
// the ring overflows, Recent returns exactly the newest window, oldest
// first, with contiguous sequence numbers, and totals keep counting.
func TestEventLogTruncation(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 20; i++ {
		l.Emit(Event{Type: EventFlush, Bytes: int64(i)})
	}
	evs := l.Recent(0)
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(12 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first, newest window)", i, e.Seq, want)
		}
		if e.Bytes != int64(12+i) {
			t.Fatalf("event %d payload %d, want %d", i, e.Bytes, 12+i)
		}
		if i > 0 && evs[i-1].Time.After(e.Time) {
			t.Fatal("events out of time order")
		}
	}
	if got := l.Recent(3); len(got) != 3 || got[2].Seq != 19 {
		t.Fatalf("Recent(3) = %+v", got)
	}
	if l.Total() != 20 {
		t.Fatalf("total %d, want 20", l.Total())
	}
	if c := l.Counts()[EventFlush]; c != 20 {
		t.Fatalf("type count %d, want 20 (overwritten events still count)", c)
	}
	// Nil log is inert.
	var nilLog *EventLog
	nilLog.Emit(Event{Type: EventFlush})
	if nilLog.Recent(1) != nil || nilLog.Total() != 0 {
		t.Fatal("nil event log not inert")
	}
}

func TestMergeEventsInterleavesByTime(t *testing.T) {
	base := time.Now()
	a := []Event{{Type: "a1", Time: base}, {Type: "a2", Time: base.Add(2 * time.Second)}}
	b := []Event{{Type: "b1", Time: base.Add(time.Second)}, {Type: "b2", Time: base.Add(3 * time.Second)}}
	m := MergeEvents(0, a, b)
	var order []string
	for _, e := range m {
		order = append(order, e.Type)
	}
	if strings.Join(order, ",") != "a1,b1,a2,b2" {
		t.Fatalf("merged order %v", order)
	}
	if got := MergeEvents(2, a, b); len(got) != 2 || got[1].Type != "b2" {
		t.Fatalf("MergeEvents(2) = %+v", got)
	}
}

func TestDebugMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("flodb_puts_total", "Puts.").Add(1)
	l := NewEventLog(8)
	l.Emit(Event{Type: EventSeal, Dur: time.Millisecond})
	mux := DebugMux(DebugOptions{
		Snapshot: func() Snapshot { return r.Snapshot() },
		Events:   func(n int) []Event { return l.Recent(n) },
		Statsz:   func() any { return map[string]int{"puts": 1} },
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := fmt.Fprint(&buf, readAll(t, resp.Body)); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.String()
	}
	if _, err := ParsePrometheus(strings.NewReader(get("/metrics"))); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(get("/events?last=5")), &evs); err != nil || len(evs) != 1 || evs[0].Type != EventSeal {
		t.Fatalf("/events: %v %+v", err, evs)
	}
	var statsz map[string]int
	if err := json.Unmarshal([]byte(get("/statsz")), &statsz); err != nil || statsz["puts"] != 1 {
		t.Fatalf("/statsz: %v %+v", err, statsz)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}
}

func readAll(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func TestTraceIDs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero trace ID %x", id)
		}
		seen[id] = true
	}
	ctx, id := EnsureTrace(t.Context())
	if id == 0 || Trace(ctx) != id {
		t.Fatal("EnsureTrace did not attach")
	}
	ctx2, id2 := EnsureTrace(ctx)
	if id2 != id || ctx2 != ctx {
		t.Fatal("EnsureTrace re-minted an existing trace")
	}
	if TraceString(0) != "-" || len(TraceString(id)) != 16 {
		t.Fatalf("TraceString formatting: %q %q", TraceString(0), TraceString(id))
	}
}

// TestStripedCounter: concurrent Adds sum exactly, and goroutines with
// stacks of their own spread over more than one cell.
func TestStripedCounter(t *testing.T) {
	var c StripedCounter
	const workers, adds = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*adds {
		t.Fatalf("Load = %d, want %d", got, workers*adds)
	}
	used := 0
	for i := range c.cells {
		if c.cells[i].v.Load() != 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("%d goroutines all counted on one cell", workers)
	}
}
