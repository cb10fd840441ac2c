package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
	"respect/internal/serve"
	"respect/internal/solver"
	"respect/internal/tpu"
)

// served is one schedule taken from a response.
type served struct {
	key      key
	stage    []int
	cacheHit bool
}

// checkSchedule checks one served schedule of g: one stage per node, a
// valid pipeline (sched.Schedule.Validate), accepted by the Edge TPU
// simulator (which enforces the children-same-stage rule), and a reported
// cost equal to sched.Evaluate.
func checkSchedule(g *graph.Graph, stages int, stage []int, cost serve.CostJSON) error {
	if len(stage) != g.NumNodes() {
		return fmt.Errorf("%s: %d stage entries for %d nodes", g.Name, len(stage), g.NumNodes())
	}
	s := sched.Schedule{NumStages: stages, Stage: stage}
	if err := s.Validate(g); err != nil {
		return fmt.Errorf("%s: %w", g.Name, err)
	}
	if _, err := tpu.Simulate(g, s, tpu.Coral()); err != nil {
		return fmt.Errorf("%s: %w", g.Name, err)
	}
	want := s.Evaluate(g)
	if cost.PeakParamBytes != want.PeakParamBytes || cost.CrossBytes != want.CrossBytes {
		return fmt.Errorf("%s: reported cost %+v, sched.Evaluate says %+v", g.Name, cost, want)
	}
	return nil
}

// checkResponse decodes a 200 response to r and checks every schedule in
// it, returning them in key order.
func checkResponse(graphs []*graph.Graph, r *request, body []byte) ([]served, error) {
	if r.path == "/v1/batch" {
		var resp serve.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("decode batch response: %w", err)
		}
		if len(resp.Items) != len(r.keys) {
			return nil, fmt.Errorf("batch of %d graphs answered with %d items", len(r.keys), len(resp.Items))
		}
		out := make([]served, len(r.keys))
		for j, item := range resp.Items {
			k := r.keys[j]
			if item.Index != j {
				return nil, fmt.Errorf("batch item %d reports index %d", j, item.Index)
			}
			if item.Error != "" {
				return nil, fmt.Errorf("batch item %d: %s", j, item.Error)
			}
			if item.Cost == nil {
				return nil, fmt.Errorf("batch item %d has no cost", j)
			}
			if err := checkSchedule(graphs[k.graph], k.stages, item.Stage, *item.Cost); err != nil {
				return nil, fmt.Errorf("batch item %d: %w", j, err)
			}
			out[j] = served{key: k, stage: item.Stage, cacheHit: item.CacheHit}
		}
		return out, nil
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode schedule response: %w", err)
	}
	k := r.keys[0]
	g := graphs[k.graph]
	if resp.Nodes != g.NumNodes() || resp.Stages != k.stages {
		return nil, fmt.Errorf("%s: response is for %d nodes at %d stages, asked %d at %d",
			g.Name, resp.Nodes, resp.Stages, g.NumNodes(), k.stages)
	}
	if err := checkSchedule(g, k.stages, resp.Stage, resp.Cost); err != nil {
		return nil, err
	}
	return []served{{key: k, stage: resp.Stage, cacheHit: resp.CacheHit}}, nil
}

// firstSolves checks saved responses in send order. It returns the first
// schedule served per key and, per response, nil or the reason it failed:
// a check above, or a cache hit that differs from its key's first solve.
func firstSolves(graphs []*graph.Graph, reqs []request, saved []savedResp) (map[key][]int, []error) {
	first := make(map[key][]int)
	errs := make([]error, len(saved))
	for i, sv := range saved {
		items, err := checkResponse(graphs, &reqs[sv.req], sv.body)
		if err != nil {
			errs[i] = err
			continue
		}
		for _, it := range items {
			f, ok := first[it.key]
			switch {
			case !ok:
				first[it.key] = it.stage
			case it.cacheHit && !slices.Equal(f, it.stage):
				errs[i] = fmt.Errorf("%s at %d stages: cache hit differs from the key's first solve",
					graphs[it.key.graph].Name, it.key.stages)
			}
		}
	}
	return first, errs
}

// qualityVsCompiler is the geometric mean, over keys, of the simulated
// Coral pipeline throughput of the served schedule (schedule(k)) over
// that of the compiler backend's schedule of the same graph and stages.
func qualityVsCompiler(graphs []*graph.Graph, keys []key, schedule func(key) ([]int, error)) (float64, error) {
	comp, err := solver.Lookup("compiler")
	if err != nil {
		return 0, err
	}
	// The benchmark's own solves run after the clock, unhurried.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ratios := make([]float64, 0, len(keys))
	for _, k := range keys {
		g := graphs[k.graph]
		stage, err := schedule(k)
		if err != nil {
			return 0, err
		}
		got, err := tpu.Simulate(g, sched.Schedule{NumStages: k.stages, Stage: stage}, tpu.Coral())
		if err != nil {
			return 0, err
		}
		cs, err := comp.Schedule(ctx, g, k.stages)
		if err != nil {
			return 0, fmt.Errorf("compiler on %s: %w", g.Name, err)
		}
		ref, err := tpu.Simulate(g, cs, tpu.Coral())
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, got.Throughput()/ref.Throughput())
	}
	return geomean(ratios)
}
