package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The histogram is log-linear, the one latency histogram of the repo (the
// store's telemetry, the server and the figure harness all record into it):
// 4 linear sub-buckets per power of two from 1ns up to ~17s, so relative
// error is bounded at ~12.5% everywhere while recording stays one atomic
// increment. Exponent 62 caps bucket midpoints within int64 nanoseconds.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	// HistBuckets is the bucket count of the log-linear histogram.
	HistBuckets = (62-histSubBits)<<histSubBits + histSub + histSub
)

// BucketOf returns the bucket index for a nanosecond latency. Exported
// for boundary tests.
func BucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	v := uint64(ns)
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (uint(exp) - histSubBits)) & (histSub - 1)
	b := (exp-histSubBits)<<histSubBits + int(sub) + histSub
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound (ns) of bucket i; values v
// with BucketLow(i) <= v < BucketLow(i+1) land in bucket i.
func BucketLow(i int) int64 {
	if i <= histSub {
		return int64(i)
	}
	exp := (i-histSub)>>histSubBits + histSubBits
	sub := (i - histSub) & (histSub - 1)
	base := uint64(1) << uint(exp)
	step := base >> histSubBits
	return int64(base + uint64(sub)*step)
}

// bucketMid returns a representative nanosecond value for bucket i.
func bucketMid(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := (i-histSub)>>histSubBits + histSubBits
	sub := (i - histSub) & (histSub - 1)
	base := uint64(1) << uint(exp)
	step := base >> histSubBits
	return int64(base + uint64(sub)*step + step/2)
}

// Histogram is a concurrent log-linear latency histogram. Recording is
// lock-free (two atomic adds, no time formatting, no allocation) and lands
// on one of histStripes copies of the buckets and sum, picked by the
// recording goroutine's stack like a StripedCounter's cell, so goroutines
// on different cores rarely write one line. All read methods sum the
// stripes and are safe concurrently with recording. A nil *Histogram
// ignores Observe and reports zero everywhere, so a layer built without
// telemetry (a baseline engine, a test) holds nil instead of branching.
type Histogram struct {
	stripes [histStripes]histStripe
}

const (
	histStripeBits = 3
	histStripes    = 1 << histStripeBits
)

// histStripe is one stripe's buckets and sum (total nanoseconds, for the
// exposition _sum), padded to whole lines.
type histStripe struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Int64
	_      [(64 - (HistBuckets+1)*8%64) % 64]byte
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	s := &h.stripes[stripe(histStripeBits)]
	s.counts[BucketOf(ns)].Add(1)
	s.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for si := range h.stripes {
		for i := range h.stripes[si].counts {
			n += h.stripes[si].counts[i].Load()
		}
	}
	return n
}

// Snapshot freezes the histogram. Its Count is the sum of its buckets;
// concurrent recording may tear Sum against them by a few observations.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	if h == nil {
		return s
	}
	for i := 0; i < HistBuckets; i++ {
		var c uint64
		for si := range h.stripes {
			c += h.stripes[si].counts[i].Load()
		}
		if c > 0 {
			s.Counts = append(s.Counts, BucketCount{Bucket: i, Count: c})
			s.Count += c
		}
	}
	for si := range h.stripes {
		s.Sum += h.stripes[si].sum.Load()
	}
	return s
}

// BucketCount is one non-empty bucket of a frozen histogram; the sparse
// encoding keeps wire payloads proportional to occupied buckets, not
// the bucket-space size.
type BucketCount struct {
	Bucket int    `json:"b"`
	Count  uint64 `json:"c"`
}

// HistSnapshot is a frozen histogram: mergeable, marshalable, and the
// unit quantiles are extracted from.
type HistSnapshot struct {
	Count  uint64        `json:"count"`
	Sum    int64         `json:"sum_ns"`
	Counts []BucketCount `json:"counts,omitempty"`
}

// Clone returns a deep copy.
func (s *HistSnapshot) Clone() *HistSnapshot {
	cp := *s
	cp.Counts = append([]BucketCount(nil), s.Counts...)
	return &cp
}

// Merge folds other into s bucket-wise — the per-source (engine and
// server, or per-node) histogram merge.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil {
		return
	}
	dense := make(map[int]uint64, len(s.Counts)+len(other.Counts))
	for _, bc := range s.Counts {
		dense[bc.Bucket] += bc.Count
	}
	for _, bc := range other.Counts {
		dense[bc.Bucket] += bc.Count
	}
	s.Counts = s.Counts[:0]
	bkts := make([]int, 0, len(dense))
	for b := range dense {
		bkts = append(bkts, b)
	}
	sort.Ints(bkts)
	for _, b := range bkts {
		s.Counts = append(s.Counts, BucketCount{Bucket: b, Count: dense[b]})
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Quantile returns the approximate q-quantile (0 < q <= 1) in
// nanoseconds (bucket midpoint), or 0 when empty.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var cum uint64
	for _, bc := range s.Counts {
		cum += bc.Count
		if cum > target {
			return bucketMid(bc.Bucket)
		}
	}
	return bucketMid(s.Counts[len(s.Counts)-1].Bucket)
}

// Mean returns the exact mean in nanoseconds (the sum is tracked, not
// reconstructed from buckets), or 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantiles is the fixed set every surface reports: p50/p90/p99/p999,
// in nanoseconds.
type Quantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	P999  int64   `json:"p999_ns"`
}

// QuantilesOf extracts the standard quantile set from a snapshot.
func QuantilesOf(s *HistSnapshot) Quantiles {
	if s == nil {
		return Quantiles{}
	}
	return Quantiles{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// opLatencyPrefix is the canonical per-op latency family every engine
// registers; OpQuantiles keys the extraction on it.
const opLatencyPrefix = `flodb_op_latency_seconds{op="`

// OpQuantiles extracts the per-op latency quantiles from a snapshot's
// flodb_op_latency_seconds histograms, keyed by op label ("put", "get",
// ...). Nil when the snapshot holds none (a source that registers no
// per-op histograms).
func OpQuantiles(s Snapshot) map[string]Quantiles {
	var out map[string]Quantiles
	for _, m := range s.Metrics {
		if m.Kind != KindHistogram || m.Hist == nil {
			continue
		}
		name, ok := strings.CutPrefix(m.Name, opLatencyPrefix)
		if !ok {
			continue
		}
		op, ok := strings.CutSuffix(name, `"}`)
		if !ok {
			continue
		}
		if out == nil {
			out = make(map[string]Quantiles)
		}
		out[op] = QuantilesOf(m.Hist)
	}
	return out
}
