package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	ad "respect/internal/autodiff"
	"respect/internal/embed"
	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/sched"
	"respect/internal/solver"
	"respect/internal/synth"
	"respect/internal/tpu"
)

// Probe sizes: enough calls for a steady median, few enough that the
// whole probe sweep stays within a few seconds.
const (
	probeLoads    = 2000 // models.Load / graph.ReadJSON calls
	probeSolves   = 128  // graph-churn pool graphs through heur, compiler and the simulator
	probeTrainers = 16   // curriculum graphs through the rl-train step's parts
	probeSteps    = 10   // Trainer.Step calls when the workload is not rl-train
)

// probe times calls to one layer, each in a span under one root span.
type probe struct {
	tr   *tracer
	root int
	req  int64
	durs []float64 // per call, in the probe's unit
	unit time.Duration
}

func newProbe(tr *tracer, name string, unit time.Duration) *probe {
	req := tr.request()
	now := time.Now()
	return &probe{tr: tr, root: tr.add("probe."+name, -1, req, now, now), req: req, unit: unit}
}

// call times fn as one span named name.
func (p *probe) call(name string, fn func()) {
	d := p.tr.call(name, p.root, p.req, fn)
	p.durs = append(p.durs, float64(d)/float64(p.unit))
}

// close stretches the root span over its calls and returns the median
// call time.
func (p *probe) close() float64 {
	if p.root >= 0 {
		p.tr.spans[p.root].EndMS = ms(time.Since(p.tr.epoch))
	}
	return median(p.durs)
}

// allocKB runs fn and returns the KB it allocated per call over calls.
func allocKB(calls int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(calls)
}

// probeLayers times each layer's public entry point over the inputs of
// the workload whose metrics it should move, and adds the per-layer
// metrics to m. agent is rl-infer's trained agent.
func probeLayers(seed int64, agent *ptrnet.Model, tr *tracer, m map[string]metric) error {
	if err := probeZoo(seed, tr, m); err != nil {
		return err
	}
	if err := probeChurn(seed, tr, m); err != nil {
		return err
	}
	if err := probeInfer(seed, agent, tr, m); err != nil {
		return err
	}
	return probeTrainStep(tr, m)
}

// probeZoo: models.Load over zoo-hit's timed key sequence, the rebuild
// the service does per zoo-named request.
func probeZoo(seed int64, tr *tracer, m map[string]metric) error {
	t, err := zooHitTraffic(seed)
	if err != nil {
		return err
	}
	names := make([]string, probeLoads)
	for i := range names {
		names[i] = t.graphs[t.reqs[t.seq[t.warm+i]].keys[0].graph].Name
	}
	p := newProbe(tr, "models", time.Microsecond)
	var loadErr error
	kb := allocKB(len(names), func() {
		for _, name := range names {
			p.call("models.load", func() {
				if _, err := models.Load(name); err != nil && loadErr == nil {
					loadErr = err
				}
			})
		}
	})
	m["models.load_us"] = metric{p.close(), "us"}
	m["models.load_kb"] = metric{kb, "KB"}
	return loadErr
}

// probeChurn: graph.ReadJSON over graph-churn's inline bodies, then the
// interactive portfolio's backends and the simulator over its pool.
func probeChurn(seed int64, tr *tracer, m map[string]metric) error {
	t, err := churnTraffic(seed)
	if err != nil {
		return err
	}
	var docs [][]byte
	for i := t.warm; len(docs) < probeLoads; i++ {
		if k := t.reqs[t.seq[i]].keys[0]; !k.batch {
			docs = append(docs, t.graphJSON[k.graph])
		}
	}
	p := newProbe(tr, "graph", time.Microsecond)
	var readErr error
	kb := allocKB(len(docs), func() {
		for _, doc := range docs {
			p.call("graph.read_json", func() {
				if _, err := graph.ReadJSON(bytes.NewReader(doc)); err != nil && readErr == nil {
					readErr = err
				}
			})
		}
	})
	if readErr != nil {
		return readErr
	}
	m["graph.read_json_us"] = metric{p.close(), "us"}
	m["graph.read_json_kb"] = metric{kb, "KB"}

	ctx := context.Background()
	scheds := make([]sched.Schedule, probeSolves)
	for _, name := range []string{"heur", "compiler"} {
		b, err := solver.Lookup(name)
		if err != nil {
			return err
		}
		p := newProbe(tr, name, time.Microsecond)
		for i := 0; i < probeSolves; i++ {
			k := t.reqs[i].keys[0]
			var s sched.Schedule
			var serr error
			p.call(name+".solve", func() { s, serr = b.Schedule(ctx, t.graphs[k.graph], k.stages) })
			if serr != nil {
				return fmt.Errorf("%s on %s: %w", name, t.graphs[k.graph].Name, serr)
			}
			if name == "heur" {
				scheds[i] = s
			}
		}
		m[name+".solve_us"] = metric{p.close(), "us"}
	}
	p = newProbe(tr, "tpu", time.Microsecond)
	for i, s := range scheds {
		g := t.graphs[t.reqs[i].keys[0].graph]
		var serr error
		p.call("tpu.simulate", func() { _, serr = tpu.Simulate(g, s, tpu.Coral()) })
		if serr != nil {
			return serr
		}
	}
	m["tpu.simulate_us"] = metric{p.close(), "us"}
	return nil
}

// probeInfer: rl-infer's deployment path split into its layers — embed,
// greedy pointer decode, and sequence repair + DP segmentation +
// children-rule repair — over the Table I models at 3-6 stages.
func probeInfer(seed int64, agent *ptrnet.Model, tr *tracer, m map[string]metric) error {
	t, err := rlInferTraffic(seed)
	if err != nil {
		return err
	}
	ecfg := embed.Default()
	pe := newProbe(tr, "embed", time.Microsecond)
	pi := newProbe(tr, "ptrnet", time.Millisecond)
	pd := newProbe(tr, "sched", time.Microsecond)
	seqs := make([][]int, len(t.graphs))
	for _, ri := range t.seq[:len(t.reqs)] {
		k := t.reqs[ri].keys[0]
		g := t.graphs[k.graph]
		if seqs[k.graph] == nil {
			var emb [][]float64
			pe.call("embed.graph", func() { emb = embed.Graph(g, ecfg) })
			pi.call("ptrnet.infer", func() { seqs[k.graph] = agent.Infer(emb) })
		}
		var derr error
		pd.call("sched.deploy", func() {
			var seq []int
			if seq, derr = sched.RepairSequence(g, seqs[k.graph]); derr != nil {
				return
			}
			var s sched.Schedule
			if s, derr = sched.SequenceToScheduleDP(g, seq, k.stages); derr != nil {
				return
			}
			sched.PostProcess(g, s)
		})
		if derr != nil {
			return fmt.Errorf("deploy %s: %w", g.Name, derr)
		}
	}
	m["embed.graph_us"] = metric{pe.close(), "us"}
	m["ptrnet.infer_ms"] = metric{pi.close(), "ms"}
	m["sched.deploy_us"] = metric{pd.close(), "us"}
	return nil
}

// probeTrainStep splits rl-train's step into its parts over curriculum
// graphs: the exact ground truth, the sampled tape decode and the
// backward pass, with rl's own exact budget and the trainer's model.
func probeTrainStep(tr *tracer, m map[string]metric) error {
	cs, err := synth.NewCurriculum(30, []int{2, 3, 4, 5, 6}, trainSeed)
	if err != nil {
		return err
	}
	trainer, err := rl.NewTrainer(trainConfig())
	if err != nil {
		return err
	}
	opts := exact.Options{MaxStates: 2_000_000, Timeout: 2 * time.Second}
	rng := rand.New(rand.NewSource(trainSeed))
	px := newProbe(tr, "exact", time.Millisecond)
	pd := newProbe(tr, "ptrnet.tape", time.Millisecond)
	pb := newProbe(tr, "autodiff", time.Millisecond)
	states, truncated := 0.0, 0
	for i := 0; i < probeTrainers; i++ {
		g := cs.Sample()
		var res exact.Result
		px.call("exact.solve", func() { res = exact.Solve(g, trainer.Cfg.Stages, opts) })
		states += float64(res.States)
		if !res.Optimal {
			truncated++
		}
		emb := embed.Graph(g, trainer.EmbedCfg)
		tape := ad.NewTape()
		var dec ptrnet.DecodeResult
		pd.call("ptrnet.decode", func() { dec = trainer.Model.Decode(tape, emb, true, rng) })
		pb.call("autodiff.backward", func() { dec.LogProb.BackwardWithSeed(1 / float64(trainer.Cfg.BatchSize)) })
	}
	m["exact.solve_ms"] = metric{px.close(), "ms"}
	m["exact.states"] = metric{states / probeTrainers, "count"}
	m["exact.truncated"] = metric{float64(truncated), "count"}
	m["ptrnet.decode_ms"] = metric{pd.close(), "ms"}
	m["autodiff.backward_ms"] = metric{pb.close(), "ms"}
	return nil
}

// probeStep times Trainer.Step for workloads other than rl-train, whose
// traced run times its own steps.
func probeStep(tr *tracer, m map[string]metric) error {
	trainer, err := rl.NewTrainer(trainConfig())
	if err != nil {
		return err
	}
	p := newProbe(tr, "rl", time.Millisecond)
	for i := 0; i < probeSteps; i++ {
		p.call("rl.step", func() { trainer.Step(i) })
	}
	m["rl.step_ms"] = metric{p.close(), "ms"}
	return nil
}
