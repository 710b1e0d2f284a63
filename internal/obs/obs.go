// Package obs is the telemetry layer: a dependency-free metrics
// registry (atomic counters, gauges, and log-linear latency histograms
// with lock-free hot-path recording), a bounded structured event log,
// Prometheus-text exposition, and the /debug HTTP surface flodbd
// mounts. Every other layer imports obs; obs imports only the standard
// library.
//
// The registry is a snapshot machine, not a scrape framework: layers
// register metrics once at Open and mutate them with single atomic
// operations; readers call Snapshot for a point-in-time copy that can
// be merged across sources or nodes (counters and gauges sum, histograms
// merge bucket-wise) and rendered to Prometheus text or JSON. kv.Stats
// reads the same counters that feed /metrics, so nothing double-counts.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; counters obtained from a Registry are additionally exported.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// StripedCounter is a Counter for a path that goroutines on every core take
// at once, such as a cache hit or an operation count, where one shared word
// would bounce its cache line between the cores on every Add. Each Add
// lands on one of stripedCells line-sized cells, picked by stripe. Load
// sums the cells. The zero value is ready to use; counters obtained from a
// Registry are additionally exported.
type StripedCounter struct {
	cells [stripedCells]struct {
		v atomic.Uint64
		_ [56]byte
	}
}

const (
	stripedBits  = 5
	stripedCells = 1 << stripedBits
)

// stripe picks one of 1<<bits stripes for the calling goroutine by its
// stack address: goroutines have disjoint stacks, so two of them rarely
// share a stripe, and one goroutine keeps using the same stripe from the
// same call site.
func stripe(bits uint) uint64 {
	var anchor byte
	sp := uint64(uintptr(unsafe.Pointer(&anchor))) >> 10 // 1 KiB: half the smallest goroutine stack
	return sp * 0x9e3779b97f4a7c15 >> (64 - bits)
}

// Add increments the counter by n.
func (c *StripedCounter) Add(n uint64) {
	c.cells[stripe(stripedBits)].v.Add(n)
}

// Inc increments the counter by one.
func (c *StripedCounter) Inc() { c.Add(1) }

// Load returns the current value: the sum of the cells, each read once, so
// it is exact when no Add runs concurrently.
func (c *StripedCounter) Load() uint64 {
	var n uint64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Kind discriminates metric types in snapshots and exposition.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metric is one registry entry. Exactly one of the value fields is set,
// matching kind.
type metric struct {
	name string // may carry a label suffix: `fam{op="put"}`
	help string
	kind Kind

	counter   *Counter
	striped   *StripedCounter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() int64
	hist      *Histogram
}

// Registry is an ordered collection of named metrics. Registration is
// rare (store open); reads take a snapshot. Metric names follow
// Prometheus conventions and may embed a fixed label set in the name
// (`flodb_op_latency_seconds{op="put"}`); the text before the brace is
// the metric family, and HELP/TYPE are emitted once per family.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[m.name]; ok {
		if prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", m.name, m.kind, prev.kind))
		}
		return prev
	}
	r.metrics = append(r.metrics, m)
	r.byName[m.name] = m
	return m
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: KindCounter, counter: &Counter{}})
	if m.counter == nil {
		panic(fmt.Sprintf("obs: counter %q re-registered as unstriped", name))
	}
	return m.counter
}

// StripedCounter registers (or returns the existing) striped counter
// under name: a counter for a path every core takes on every operation.
func (r *Registry) StripedCounter(name, help string) *StripedCounter {
	m := r.register(&metric{name: name, help: help, kind: KindCounter, striped: &StripedCounter{}})
	if m.striped == nil {
		panic(fmt.Sprintf("obs: counter %q re-registered as striped", name))
	}
	return m.striped
}

// CounterFunc registers a counter whose value is computed at snapshot
// time — the bridge for layers that already keep their own atomics
// (wal.Metrics, the disk component's counters): the registry view reads
// them, it does not duplicate them.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metric{name: name, help: help, kind: KindCounter, counterFn: fn})
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: KindGauge, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge computed at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: KindGauge, gaugeFn: fn})
}

// Histogram registers (or returns the existing) latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(&metric{name: name, help: help, kind: KindHistogram, hist: NewHistogram()})
	return m.hist
}

// Metric is one entry of a Snapshot: a frozen counter/gauge value or a
// frozen histogram.
type Metric struct {
	Name  string        `json:"name"`
	Help  string        `json:"help,omitempty"`
	Kind  Kind          `json:"kind"`
	Value int64         `json:"value,omitempty"`
	Hist  *HistSnapshot `json:"hist,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, safe to merge,
// marshal, or render after the source keeps mutating.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot freezes every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	s := Snapshot{Metrics: make([]Metric, 0, len(metrics))}
	for _, m := range metrics {
		out := Metric{Name: m.name, Help: m.help, Kind: m.kind}
		switch {
		case m.counter != nil:
			out.Value = int64(m.counter.Load())
		case m.striped != nil:
			out.Value = int64(m.striped.Load())
		case m.counterFn != nil:
			out.Value = int64(m.counterFn())
		case m.gauge != nil:
			out.Value = m.gauge.Load()
		case m.gaugeFn != nil:
			out.Value = m.gaugeFn()
		case m.hist != nil:
			out.Hist = m.hist.Snapshot()
		}
		s.Metrics = append(s.Metrics, out)
	}
	return s
}

// Merge combines snapshots: same-name counters and gauges sum,
// same-name histograms merge bucket-wise (the per-source merge), and
// distinct names union. Order follows first appearance, so a stable
// input order yields a stable exposition.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	idx := make(map[string]int)
	for _, s := range snaps {
		for _, m := range s.Metrics {
			i, ok := idx[m.Name]
			if !ok {
				idx[m.Name] = len(out.Metrics)
				cp := m
				if m.Hist != nil {
					cp.Hist = m.Hist.Clone()
				}
				out.Metrics = append(out.Metrics, cp)
				continue
			}
			dst := &out.Metrics[i]
			switch dst.Kind {
			case KindHistogram:
				if m.Hist != nil {
					if dst.Hist == nil {
						dst.Hist = m.Hist.Clone()
					} else {
						dst.Hist.Merge(m.Hist)
					}
				}
			default:
				dst.Value += m.Value
			}
		}
	}
	return out
}

// family splits a metric name into its family and label suffix:
// `fam{op="put"}` → ("fam", `op="put"`); a bare name has no labels.
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// Family returns the metric family of a series name: `fam{op="put"}` →
// "fam".
func Family(name string) string {
	fam, _ := family(name)
	return fam
}

// sortedByFamily returns the snapshot's metrics grouped by family,
// families in first-appearance order, series within a family in
// appearance order.
func (s Snapshot) sortedByFamily() []Metric {
	order := make(map[string]int)
	for _, m := range s.Metrics {
		fam, _ := family(m.Name)
		if _, ok := order[fam]; !ok {
			order[fam] = len(order)
		}
	}
	out := append([]Metric(nil), s.Metrics...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, _ := family(out[i].Name)
		fj, _ := family(out[j].Name)
		return order[fi] < order[fj]
	})
	return out
}
