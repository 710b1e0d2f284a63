package obs

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries checks the log-linear geometry invariants: every
// bucket's low bound maps back into that bucket, the value one below
// maps into the previous bucket, and BucketOf is monotone.
func TestBucketBoundaries(t *testing.T) {
	for i := 1; i < HistBuckets; i++ {
		low := BucketLow(i)
		if got := BucketOf(low); got != i {
			t.Fatalf("BucketOf(BucketLow(%d)=%d) = %d", i, low, got)
		}
		if low > 1 {
			if got := BucketOf(low - 1); got != i-1 {
				t.Fatalf("BucketOf(%d) = %d, want %d (one below bucket %d's low bound)", low-1, got, i-1, i)
			}
		}
	}
	prev := 0
	for ns := int64(1); ns < int64(1)<<40; ns = ns*3/2 + 1 {
		b := BucketOf(ns)
		if b < prev {
			t.Fatalf("BucketOf not monotone at %d: %d < %d", ns, b, prev)
		}
		prev = b
	}
	// Midpoints are monotone and lie inside their own bucket (bucket 0
	// holds nothing: BucketOf clamps values below 1ns to 1).
	for i := 1; i < HistBuckets; i++ {
		mid := bucketMid(i)
		if mid <= bucketMid(i-1) {
			t.Fatalf("bucketMid not monotone at %d: %d <= %d", i, mid, bucketMid(i-1))
		}
		if BucketOf(mid) != i {
			t.Fatalf("bucketMid(%d) = %d lands in bucket %d", i, mid, BucketOf(mid))
		}
	}
	// Relative error bound: the bucket midpoint is within ~12.5% + half a
	// step of any value in the bucket.
	for ns := int64(100); ns < 1e9; ns = ns * 7 / 3 {
		mid := bucketMid(BucketOf(ns))
		if rel := float64(mid-ns) / float64(ns); rel > 0.15 || rel < -0.15 {
			t.Fatalf("bucketMid(BucketOf(%d)) = %d, relative error %.3f", ns, mid, rel)
		}
	}
}

// TestQuantileOracle compares quantile extraction against a sorted
// sample oracle on a heavy-tailed distribution: the histogram's answer
// must land within one bucket width (12.5% + slack) of the exact
// order statistic.
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	samples := make([]int64, 0, 200000)
	for i := 0; i < cap(samples); i++ {
		// Log-uniform over [100ns, 100ms] — spans 6 decades like real op
		// latency under compaction interference.
		ns := int64(100 * math.Pow(10, rng.Float64()*6))
		samples = append(samples, ns)
		h.Observe(time.Duration(ns))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("snapshot count %d, want %d", s.Count, len(samples))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := s.Quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel > 0.15 || rel < -0.15 {
			t.Errorf("q=%v: histogram %d vs oracle %d (rel %.3f)", q, got, exact, rel)
		}
	}
	// The mean is exact (sum is tracked), not bucket-approximated.
	var sum int64
	for _, v := range samples {
		sum += v
	}
	if got, want := s.Mean(), float64(sum)/float64(len(samples)); got != want {
		t.Errorf("mean %v, want exact %v", got, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// under -race and checks conservation of observations.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const perG = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration((g+1)*(i+1)) * time.Nanosecond)
			}
		}(g)
	}
	// Concurrent readers while recording is in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			_ = s.Quantile(0.99)
			_ = s.Mean()
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count %d, want %d", got, goroutines*perG)
	}
	s := h.Snapshot()
	var bucketsSum uint64
	for _, bc := range s.Counts {
		bucketsSum += bc.Count
	}
	if bucketsSum != goroutines*perG {
		t.Fatalf("bucket sum %d, want %d", bucketsSum, goroutines*perG)
	}
}

// TestHistogramMerge merges per-source histograms and checks the merged
// quantiles equal those of one histogram fed the union of samples.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]*Histogram, 4)
	union := NewHistogram()
	for i := range shards {
		shards[i] = NewHistogram()
	}
	for i := 0; i < 100000; i++ {
		ns := time.Duration(rng.Intn(1_000_000)+1) * time.Nanosecond
		shards[i%len(shards)].Observe(ns)
		union.Observe(ns)
	}
	merged := shards[0].Snapshot()
	for _, sh := range shards[1:] {
		merged.Merge(sh.Snapshot())
	}
	want := union.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum {
		t.Fatalf("merged count/sum %d/%d, want %d/%d", merged.Count, merged.Sum, want.Count, want.Sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if merged.Quantile(q) != want.Quantile(q) {
			t.Errorf("q=%v: merged %d != union %d", q, merged.Quantile(q), want.Quantile(q))
		}
	}
	// Merging through obs.Merge at the snapshot level agrees too.
	a := Snapshot{Metrics: []Metric{{Name: "h", Kind: KindHistogram, Hist: shards[0].Snapshot()}}}
	b := Snapshot{Metrics: []Metric{{Name: "h", Kind: KindHistogram, Hist: shards[1].Snapshot()}}}
	m := Merge(a, b)
	if got := m.Metrics[0].Hist.Count; got != shards[0].Count()+shards[1].Count() {
		t.Fatalf("snapshot-level merge count %d", got)
	}
}

// TestNilHistogram: layers built without telemetry (baselines, tests)
// hold nil pointers; every method must be a no-op, not a panic. An empty
// histogram reports zero everywhere, like a nil one.
func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	for _, h := range []*Histogram{h, NewHistogram()} {
		if h.Count() != 0 {
			t.Fatal("empty histogram count")
		}
		s := h.Snapshot()
		if s.Quantile(0.5) != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
			t.Fatal("empty histogram snapshot not zero")
		}
		if q := QuantilesOf(s); q != (Quantiles{}) {
			t.Fatalf("QuantilesOf(empty) = %+v", q)
		}
	}
	if q := QuantilesOf(nil); q.Count != 0 {
		t.Fatal("QuantilesOf(nil)")
	}
}

// TestHistogramStripesExact: 16 goroutines record at once, each onto the
// stripe its stack picks; once they have joined, Count, the snapshot's
// buckets and its sum are exactly what was recorded.
func TestHistogramStripesExact(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 16, 5000
	want := make(map[int]uint64)
	var wantSum int64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			ns := int64((g+1)*(i+1)) * 13
			want[BucketOf(ns)]++
			wantSum += ns
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration((g+1)*(i+1)) * 13)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count %d, want %d", got, goroutines*perG)
	}
	s := h.Snapshot()
	if s.Count != goroutines*perG || s.Sum != wantSum {
		t.Fatalf("snapshot count/sum %d/%d, want %d/%d", s.Count, s.Sum, goroutines*perG, wantSum)
	}
	if len(s.Counts) != len(want) {
		t.Fatalf("%d non-empty buckets, want %d", len(s.Counts), len(want))
	}
	for _, bc := range s.Counts {
		if bc.Count != want[bc.Bucket] {
			t.Fatalf("bucket %d holds %d, want %d", bc.Bucket, bc.Count, want[bc.Bucket])
		}
	}
}

// TestPrometheusGolden renders a fixed registry — plain and striped
// counters, a gauge, two labelled histograms and an empty one — and
// compares it with testdata/prometheus.golden, which was rendered before
// the histograms and per-op counters were striped: striping changes no
// exposed byte.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.StripedCounter("flodb_puts_total", "Put operations.").Add(12345)
	reg.Counter("flodb_scans_total", "Scan operations.").Add(7)
	reg.Gauge("flodb_memtable_bytes", "Approximate live Memtable bytes.").Set(-42)
	put := reg.Histogram(`flodb_op_latency_seconds{op="put"}`, "Operation latency by op.")
	get := reg.Histogram(`flodb_op_latency_seconds{op="get"}`, "Operation latency by op.")
	reg.Histogram("flodb_write_stall_seconds", "Per-op writer stall time.")
	var wg sync.WaitGroup
	for g := int64(0); g < 3; g++ { // the observations land on several stripes
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 300; i++ {
				if i%3 == g {
					put.Observe(time.Duration(i*i*37 + i%7*1000))
					get.Observe(time.Duration(i*911 + 50))
				}
			}
		}()
	}
	wg.Wait()
	put.Observe(20 * time.Second)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/prometheus.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("exposition differs from the golden copy:\n%s\nwant:\n%s", got, want)
	}
}
