package main

import (
	"math"
	"slices"
)

// sampler keeps raw latencies in nanoseconds in a buffer allocated before
// the run, so percentiles are exact instead of bucketed. When the buffer
// fills it keeps every second sample and from then on records one op in
// k; k is reported next to the percentile. Samples arrive in time order,
// so a slice of the window is a range of the buffer: marks holds where
// each slice starts.
type sampler struct {
	buf   []uint32
	marks []int
	k     uint64 // record one in k
	seen  uint64
	max   int64
}

const samplerCap = 4 << 20

func newSampler(capacity int) sampler {
	return sampler{buf: make([]uint32, 0, capacity), k: 1}
}

func (s *sampler) add(ns int64) {
	if ns > s.max {
		s.max = ns
	}
	s.seen++
	if s.seen%s.k != 0 {
		return
	}
	s.buf = append(s.buf, uint32(min(max(ns, 0), math.MaxUint32)))
	if len(s.buf) == cap(s.buf) {
		s.halve()
	}
}

// mark starts the next slice of the window.
func (s *sampler) mark() { s.marks = append(s.marks, len(s.buf)) }

func (s *sampler) halve() {
	n := 0
	for i := 1; i < len(s.buf); i += 2 {
		s.buf[n] = s.buf[i]
		n++
	}
	s.buf = s.buf[:n]
	s.k *= 2
	for i := range s.marks {
		s.marks[i] /= 2
	}
}

// slice returns the samples of slice i (every sample when i < 0).
func (s *sampler) slice(i int) []uint32 {
	if i < 0 {
		return s.buf
	}
	if i >= len(s.marks) {
		return nil
	}
	end := len(s.buf)
	if i+1 < len(s.marks) {
		end = s.marks[i+1]
	}
	return s.buf[s.marks[i]:end]
}

// dist is the merged, sorted sample of one operation type.
type dist struct {
	sorted []uint32
	max    int64 // slowest operation observed, sampled or not
}

// merge sorts slice i of every sampler together (the whole window when
// i < 0). It first brings the samplers to the coarsest stride among them,
// so each kept sample stands for the same number of operations.
func merge(i int, ss ...*sampler) dist {
	var d dist
	var k uint64
	for _, s := range ss {
		k = max(k, s.k)
	}
	for _, s := range ss {
		for s.k < k {
			s.halve()
		}
		d.sorted = append(d.sorted, s.slice(i)...)
		d.max = max(d.max, s.max)
	}
	slices.Sort(d.sorted)
	return d
}

// sliceMedian is the median over the window's slices of each slice's
// q-quantile, in nanoseconds: one disturbed second moves one slice, not
// the result. Slices with no sample are left out.
func sliceMedian(q float64, slices int, ss ...*sampler) float64 {
	var per []float64
	for i := 0; i < slices; i++ {
		if d := merge(i, ss...); len(d.sorted) > 0 {
			per = append(per, d.quantile(q))
		}
	}
	return median(per)
}

// quantile is the nearest-rank q-quantile in nanoseconds (0 when empty).
func (d *dist) quantile(q float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d.sorted)))) - 1
	return float64(d.sorted[min(max(i, 0), len(d.sorted)-1)])
}

// median of a small set of float64s (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
