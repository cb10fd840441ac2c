package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// above it: a tail figure resting on fewer is one outlier's value.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank method. It refuses when fewer than minBeyond samples lie
// above the rank, so a run too short for its percentile fails loudly
// instead of reporting noise. samples need not be sorted.
func percentile(samples []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// minSamples is the smallest sample count percentile accepts for q.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of samples (the mean of the two middle
// values for an even count); zero for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// geomean returns the geometric mean of positive ratios.
func geomean(ratios []float64) (float64, error) {
	if len(ratios) == 0 {
		return 0, fmt.Errorf("geometric mean of no ratios")
	}
	sum := 0.0
	for _, r := range ratios {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("geometric mean of non-positive ratio %v", r)
		}
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios))), nil
}

// mean returns the arithmetic mean of samples; zero for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// measured is the record of one measured stretch: every request's latency
// and the segments it is cut into.
type measured struct {
	lat    []float64 // per request (or step), ms
	graphs int
	within int
	segs   []segment
}

// segment is a cut in a measured run: the requests before end, the graphs
// they scheduled and the elapsed time at the cut, all cumulative.
type segment struct {
	end, graphs int
	at          time.Duration
}

// Other processes on the machine slow whole seconds of a run by a
// quarter or more, for stretches of several seconds. So a run is cut
// into segments of at least segmentLen, each a whole number of rounds,
// and its figures come from its fastest segments: as many as it takes to
// hold a tenth of the run and minSamples(0.9) requests. Interference
// only ever slows a segment, and every round holds the same mix, so
// this tracks the program rather than the neighbours.
const segmentLen = time.Second

func (m *measured) record(lat time.Duration, graphs int, within bool) {
	m.lat = append(m.lat, ms(lat))
	m.graphs += graphs
	if within {
		m.within++
	}
}

// cut is called on round boundaries at elapsed time el. It closes the
// open segment once it has lasted segmentLen and reports whether it did.
func (m *measured) cut(el time.Duration) bool {
	var prev segment
	if k := len(m.segs); k > 0 {
		prev = m.segs[k-1]
	}
	if el-prev.at < segmentLen {
		return false
	}
	m.segs = append(m.segs, segment{end: len(m.lat), graphs: m.graphs, at: el})
	return true
}

// fastest returns the latencies, graph count and duration of the run's
// fastest segments (see segmentLen).
func (m measured) fastest() ([]float64, int, time.Duration) {
	type seg struct {
		from, end, graphs int
		dur               time.Duration
	}
	segs := make([]seg, len(m.segs))
	var prev segment
	for i, s := range m.segs {
		segs[i] = seg{prev.end, s.end, s.graphs - prev.graphs, s.at - prev.at}
		prev = s
	}
	sort.SliceStable(segs, func(i, j int) bool {
		return float64(segs[i].graphs)/segs[i].dur.Seconds() > float64(segs[j].graphs)/segs[j].dur.Seconds()
	})
	want := max(minSamples(0.9), len(m.lat)/10)
	var lat []float64
	graphs, dur := 0, time.Duration(0)
	for _, s := range segs {
		if len(lat) >= want {
			break
		}
		lat = append(lat, m.lat[s.from:s.end]...)
		graphs += s.graphs
		dur += s.dur
	}
	return lat, graphs, dur
}

// figures returns the run's throughput and its p50 and p90 latency,
// from its fastest segments.
func (m measured) figures() (gps, p50, p90 float64, err error) {
	lat, graphs, dur := m.fastest()
	if p50, err = percentile(lat, 0.5); err != nil {
		return 0, 0, 0, err
	}
	if p90, err = percentile(lat, 0.9); err != nil {
		return 0, 0, 0, err
	}
	return float64(graphs) / dur.Seconds(), p50, p90, nil
}
