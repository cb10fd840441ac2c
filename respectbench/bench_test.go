package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"respect/internal/graph"
	"respect/internal/sched"
	"respect/internal/serve"
	"respect/internal/solver"
)

// encode flattens a workload's generated inputs to bytes.
func encode(t *testing.T, tr *traffic) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range tr.reqs {
		buf.WriteString(r.path)
		buf.Write(r.body)
		buf.Write(r.traced)
	}
	if err := binary.Write(&buf, binary.LittleEndian, tr.seq); err != nil {
		t.Fatal(err)
	}
	for _, k := range tr.quality {
		if err := binary.Write(&buf, binary.LittleEndian, [2]int32{int32(k.graph), int32(k.stages)}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	for _, w := range []string{workloadZooHit, workloadChurn, workloadRLInfer} {
		gen := func(seed int64) []byte {
			tr, err := newTraffic(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return encode(t, tr)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

func TestRoundsHoldTheSameMix(t *testing.T) {
	for _, w := range []string{workloadZooHit, workloadRLInfer} {
		tr, err := newTraffic(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		count := func(block []int32) map[int32]int {
			m := make(map[int32]int)
			for _, v := range block {
				m[v]++
			}
			return m
		}
		want := count(tr.seq[:tr.round])
		for i := tr.round; i+tr.round <= len(tr.seq); i += tr.round {
			got := count(tr.seq[i : i+tr.round])
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("%s: round at %d sends request %d %d times, the first round %d", w, i, k, got[k], n)
				}
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	if got, err := percentile(samples, 0.9); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(samples[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond it) was accepted")
	}
	if _, err := percentile(samples, 0.99); err == nil {
		t.Error("p99 of 100 samples (1 beyond it) was accepted")
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if _, err := geomean([]float64{1, 0}); err == nil {
		t.Error("geometric mean accepted a zero ratio")
	}
}

// servedFixture solves graph-churn's request ri with the heur backend and
// returns the traffic, the request and valid responses for both
// endpoints.
func servedFixture(t *testing.T, ri int) (*traffic, *request, serve.ScheduleResponse, serve.BatchResponse) {
	t.Helper()
	tr, err := newTraffic(workloadChurn, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &tr.reqs[ri]
	k := r.keys[0]
	g := tr.graphs[k.graph]
	b, err := solver.Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Schedule(context.Background(), g, k.stages)
	if err != nil {
		t.Fatal(err)
	}
	cost := wireCost(s, g)
	resp := serve.ScheduleResponse{Graph: g.Name, Nodes: g.NumNodes(), Stages: k.stages, Stage: s.Stage, Cost: cost}
	item := serve.BatchItemJSON{Stage: s.Stage, Cost: &cost}
	return tr, r, resp, serve.BatchResponse{Items: []serve.BatchItemJSON{item}}
}

func wireCost(s sched.Schedule, g *graph.Graph) serve.CostJSON {
	c := s.Evaluate(g)
	return serve.CostJSON{PeakParamBytes: c.PeakParamBytes, CrossBytes: c.CrossBytes}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestOutputCheckRejectsBadSchedules(t *testing.T) {
	tr, r, resp, batch := servedFixture(t, 0)
	if _, err := checkResponse(tr.graphs, r, marshal(t, resp)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}

	// Reversing the pipeline breaks stage order along every edge that
	// crossed stages; the cost is recomputed so only the order is wrong.
	tampered := resp
	tampered.Stage = make([]int, len(resp.Stage))
	for v, st := range resp.Stage {
		tampered.Stage[v] = resp.Stages - 1 - st
	}
	g := tr.graphs[r.keys[0].graph]
	tampered.Cost = wireCost(sched.Schedule{NumStages: resp.Stages, Stage: tampered.Stage}, g)
	if _, err := checkResponse(tr.graphs, r, marshal(t, tampered)); err == nil {
		t.Error("reversed stage vector accepted")
	}

	short := resp
	short.Stage = resp.Stage[1:]
	if _, err := checkResponse(tr.graphs, r, marshal(t, short)); err == nil {
		t.Error("stage vector one entry short accepted")
	}

	wrongCost := resp
	wrongCost.Cost.PeakParamBytes++
	if _, err := checkResponse(tr.graphs, r, marshal(t, wrongCost)); err == nil {
		t.Error("wrong reported cost accepted")
	}

	br := &request{path: "/v1/batch", keys: []key{{batch: true, graph: r.keys[0].graph, stages: r.keys[0].stages}}}
	if _, err := checkResponse(tr.graphs, br, marshal(t, batch)); err != nil {
		t.Fatalf("valid batch response rejected: %v", err)
	}
	batch.Items[0].Error = "solver failed"
	if _, err := checkResponse(tr.graphs, br, marshal(t, batch)); err == nil {
		t.Error("batch item carrying an error accepted")
	}
}

func TestCacheHitMustMatchFirstSolve(t *testing.T) {
	// A hit carrying another backend's valid schedule for its key passes
	// every per-schedule check but is not what the key first got. Find a
	// pool graph on which some backend disagrees with heur.
	for ri := 0; ri < churnPool; ri++ {
		tr, r, resp, _ := servedFixture(t, ri)
		k := r.keys[0]
		g := tr.graphs[k.graph]
		b, err := solver.Lookup("compiler")
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Schedule(context.Background(), g, k.stages)
		if err != nil || slices.Equal(s.Stage, resp.Stage) {
			continue
		}
		hit := resp
		hit.CacheHit, hit.Stage, hit.Cost = true, s.Stage, wireCost(s, g)
		saved := []savedResp{{req: ri, body: marshal(t, resp)}, {req: ri, body: marshal(t, hit)}}
		_, errs := firstSolves(tr.graphs, tr.reqs, saved)
		if errs[0] != nil {
			t.Fatalf("first solve rejected: %v", errs[0])
		}
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "first solve") {
			t.Errorf("differing cache hit not reported: %v", errs[1])
		}
		return
	}
	t.Fatal("compiler and heur agree on every pool graph")
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", StartMS: 0, EndMS: 10},
		{ID: 1, Parent: 0, Name: "handler", StartMS: 2, EndMS: 8},
		{ID: 2, Parent: 1, Name: "solve", StartMS: 3, EndMS: 5},
		{ID: 3, Parent: 1, Name: "solve", StartMS: 4, EndMS: 6}, // overlaps its sibling
	}
	got := selfTimes(spans)
	want := map[string]float64{"request": 4, "handler": 3, "solve": 4}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	for _, tc := range []struct {
		list    string
		json    []struct{ Name, Unit, Better string }
		catalog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.catalog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", tc.list, len(tc.json), len(tc.catalog))
		}
		for i, m := range tc.json {
			d := tc.catalog[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %s %s %s", tc.list, i, m, d.name, d.unit, d.better)
			}
		}
	}
}
