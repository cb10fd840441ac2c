package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/serve"
	"respect/internal/synth"
)

// The benchmark's workloads.
const (
	workloadZooHit  = "zoo-hit"
	workloadChurn   = "graph-churn"
	workloadRLInfer = "rl-infer"
	workloadRLTrain = "rl-train"
)

var workloads = []string{workloadZooHit, workloadChurn, workloadRLInfer, workloadRLTrain}

// Input sizes. graph-churn draws from a pool four times the server's
// per-class cache capacity, so the cache must evict; one request in
// batchEvery is a /v1/batch call of batchSize pool graphs.
const (
	seqLen       = 1 << 18 // request-order length; runs that outlast it wrap around
	churnPool    = 512
	churnCache   = 128
	churnZipf    = 1.1
	churnMixSeed = 1
	batchEvery   = 20
	batchSize    = 4
	churnRound   = 1000 // graph-churn requests per round; the first is sent before the clock
	batchBodies  = churnRound / batchEvery
	checkEvery   = 64 // zoo-hit/graph-churn check a seeded 1-in-checkEvery sample
	minStages    = 3
	maxStages    = 6
)

// key identifies one cached schedule: a graph of the workload's table at
// a stage count, on one endpoint (/v1/batch keeps a cache of its own, so
// the same graph may legitimately get another schedule there).
type key struct {
	batch  bool
	graph  int
	stages int
}

// request is one distinct request body and the schedules it asks for.
type request struct {
	path   string
	body   []byte
	traced []byte // body asking for the response timeline; nil when the endpoint has none
	keys   []key
	budget time.Duration // the request class's latency budget
}

// traffic is a serving workload's generated input: the graphs, the
// distinct requests and the order in which they are sent.
type traffic struct {
	graphs []*graph.Graph
	// graphJSON holds graph-churn's inline graph documents, as sent.
	graphJSON []json.RawMessage
	reqs      []request
	seq       []int32 // request indices in send order, cyclic
	warm      int     // leading seq entries sent before the clock
	// round is the length of the seq blocks that each hold the same
	// multiset of requests; a timed run ends on a block boundary, so
	// every run of a seed measures the same mix.
	round int
	// quality lists the /v1/schedule keys quality_vs_compiler covers;
	// every one is served before the clock or within the first
	// minSamples timed requests, so the set never depends on speed.
	quality []key
	// checkEvery sets the seeded share of responses the output checks
	// sample (see checked); the first response to every request is
	// always checked.
	checkEvery int
	seed       int64
}

// checked reports whether the i-th response is in the check sample.
func (t *traffic) checked(i int) bool {
	if t.checkEvery <= 1 {
		return true
	}
	return mix(uint64(t.seed), uint64(i))%uint64(t.checkEvery) == 0
}

// mix is the splitmix64 finalizer over a seed and an index.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newTraffic generates a serving workload's inputs from seed.
func newTraffic(workload string, seed int64) (*traffic, error) {
	switch workload {
	case workloadZooHit:
		return zooHitTraffic(seed)
	case workloadChurn:
		return churnTraffic(seed)
	case workloadRLInfer:
		return rlInferTraffic(seed)
	}
	return nil, fmt.Errorf("workload %q sends no traffic", workload)
}

func classBudget(c serve.Class) time.Duration { return serve.DefaultClasses()[c].Budget }

// zooRequests builds one /v1/schedule request per (model, stages) pair.
func zooRequests(names []string, class serve.Class, backends []string) (*traffic, error) {
	t := &traffic{}
	for gi, name := range names {
		g, err := models.Load(name)
		if err != nil {
			return nil, err
		}
		t.graphs = append(t.graphs, g)
		for st := minStages; st <= maxStages; st++ {
			req := serve.ScheduleRequest{Model: name, Stages: st, Class: string(class), Backends: backends}
			r, err := scheduleRequest(req, key{graph: gi, stages: st}, classBudget(class))
			if err != nil {
				return nil, err
			}
			t.reqs = append(t.reqs, r)
			t.quality = append(t.quality, r.keys[0])
		}
	}
	return t, nil
}

func scheduleRequest(req serve.ScheduleRequest, k key, budget time.Duration) (request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, err
	}
	req.Trace = true
	traced, err := json.Marshal(req)
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/schedule", body: body, traced: traced, keys: []key{k}, budget: budget}, nil
}

// zooHitTraffic: every zoo model at 3-6 stages in the interactive class,
// in a seeded order. The first pass over all keys runs before the clock,
// so every timed request is a cache hit.
func zooHitTraffic(seed int64) (*traffic, error) {
	t, err := zooRequests(models.Names(), serve.ClassInteractive, nil)
	if err != nil {
		return nil, err
	}
	all := make([]int32, len(t.reqs))
	for i := range all {
		all[i] = int32(i)
	}
	t.seq = rounds(all, seqLen, rand.New(rand.NewSource(seed)))
	t.warm, t.round, t.checkEvery, t.seed = len(all), len(all), checkEvery, seed
	return t, nil
}

// rlInferTraffic: the ten Table I models at 3-6 stages through the rl
// backend alone (which bypasses the cache) in the batch class. Decode
// time grows with the square of the node count, so each model is a
// cluster of latencies; InceptionResNetv2, the largest, is sent twice
// per round so that p50 and p90 fall inside a cluster, not on the step
// between two.
func rlInferTraffic(seed int64) (*traffic, error) {
	names := models.TableINames()
	t, err := zooRequests(names, serve.ClassBatch, []string{"rl"})
	if err != nil {
		return nil, err
	}
	var round []int32
	for i, r := range t.reqs {
		round = append(round, int32(i))
		if t.graphs[r.keys[0].graph].Name == "InceptionResNetv2" {
			round = append(round, int32(i))
		}
	}
	t.seq = rounds(round, 40*len(round), rand.New(rand.NewSource(seed)))
	t.round, t.checkEvery, t.seed = len(round), 1, seed
	return t, nil
}

// rounds concatenates shuffles of round until n entries.
func rounds(round []int32, n int, rng *rand.Rand) []int32 {
	seq := make([]int32, 0, n)
	for len(seq) < n {
		perm := rng.Perm(len(round))
		for _, i := range perm {
			seq = append(seq, round[i])
		}
	}
	return seq
}

// churnTraffic: inline synthetic graphs (20-120 nodes, in-degree bound
// 2-4, 3-6 stages) drawn with Zipf popularity from a pool four times the
// server's cache, with one request in batchEvery a /v1/batch call. The
// pool index is the popularity rank.
func churnTraffic(seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{checkEvery: checkEvery, seed: seed}
	for i := 0; i < churnPool; i++ {
		// Size, in-degree bound and stages follow the popularity rank i,
		// not the seed, so every seed sends the same mix of sizes; the
		// seed draws each graph's edges and memory footprints.
		cfg := synth.DefaultConfig(2 + i%3)
		cfg.NumNodes = 20 + (i*37)%101
		stages := minStages + (i/3)%(maxStages-minStages+1)
		s, err := synth.NewSampler(cfg, rng.Int63())
		if err != nil {
			return nil, err
		}
		g := s.Sample()
		var buf, compact bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return nil, err
		}
		if err := json.Compact(&compact, buf.Bytes()); err != nil {
			return nil, err
		}
		t.graphs = append(t.graphs, g)
		t.graphJSON = append(t.graphJSON, compact.Bytes())
		req := serve.ScheduleRequest{Graph: t.graphJSON[i], Stages: stages, Class: string(serve.ClassInteractive)}
		r, err := scheduleRequest(req, key{graph: i, stages: stages}, classBudget(serve.ClassInteractive))
		if err != nil {
			return nil, err
		}
		t.reqs = append(t.reqs, r)
	}
	// The round's popularity draws come from a fixed seed too, so every
	// seed sends the same mix of ranks; the run's seed only shuffles it.
	mix := rand.New(rand.NewSource(churnMixSeed))
	zipf := rand.NewZipf(mix, churnZipf, 1, churnPool-1)
	for b := 0; b < batchBodies; b++ {
		stages := minStages + mix.Intn(maxStages-minStages+1)
		req := serve.BatchRequest{Stages: stages, Class: string(serve.ClassBatch)}
		r := request{path: "/v1/batch", budget: classBudget(serve.ClassBatch)}
		for j := 0; j < batchSize; j++ {
			gi := int(zipf.Uint64())
			req.Graphs = append(req.Graphs, t.graphJSON[gi])
			r.keys = append(r.keys, key{batch: true, graph: gi, stages: stages})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.body = body
		t.reqs = append(t.reqs, r)
	}
	// One round is churnRound Zipf draws with every batchEvery-th slot a
	// batch call; every later round sends the same multiset reshuffled.
	round := make([]int32, churnRound)
	seen := make(map[key]bool)
	for i := range round {
		ri := churnPool + (i/batchEvery)%batchBodies
		if i%batchEvery != batchEvery-1 {
			ri = int(zipf.Uint64())
			if k := t.reqs[ri].keys[0]; !seen[k] {
				seen[k] = true
				t.quality = append(t.quality, k)
			}
		}
		round[i] = int32(ri)
	}
	t.seq = append(round, rounds(round, seqLen, rng)...)
	t.round = churnRound
	t.warm = churnRound
	return t, nil
}
