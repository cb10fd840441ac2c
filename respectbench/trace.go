package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one probe call) share Req; Parent is the ID of the span that caused
// this one, -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// maxSpans bounds the spans kept in memory; a traced run of a µs-scale
// workload produces millions. Spans past the cap are counted, not kept,
// and the per-layer metrics never depend on them.
const maxSpans = 200_000

// tracer records spans in memory and writes them out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
	nextReq int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request returns a fresh request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.nextReq++
	return t.nextReq
}

// add records a span over [start, end] and returns its ID (-1 when the
// tracer is nil or full, which callers pass on as a parent harmlessly).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartMS: ms(start.Sub(t.epoch)), EndMS: ms(end.Sub(t.epoch)),
	})
	return id
}

// call runs fn inside a span and returns fn's duration.
func (t *tracer) call(name string, parent int, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// selfTimes returns, per span name, the total time its spans spent
// outside their children: a span's duration minus the part of its
// interval that child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.EndMS - s.StartMS) - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of kids' intervals clipped to
// parent's interval.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartMS, parent.StartMS), min(k.EndMS, parent.EndMS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := 0.0, parent.StartMS
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}

// traceFile is the document a traced run writes at exit.
type traceFile struct {
	Stamp   stamp              `json:"stamp"`
	SelfMS  map[string]float64 `json:"self_ms"`
	Metrics map[string]metric  `json:"metrics"`
	Dropped int                `json:"spans_dropped"`
	Spans   []span             `json:"spans"`
}

// write saves the spans, their per-name self times and the run's
// per-layer metrics to path.
func (t *tracer) write(path string, st stamp, metrics map[string]metric) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := traceFile{Stamp: st, SelfMS: selfTimes(t.spans), Metrics: metrics, Dropped: t.dropped, Spans: t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
