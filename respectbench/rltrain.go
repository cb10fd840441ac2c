package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"respect/internal/models"
	"respect/internal/nn"
	"respect/internal/ptrnet"
	"respect/internal/rl"
)

// rl-train runs REINFORCE on the paper's default curriculum (30-node
// graphs, in-degree bound 2-6) from one fixed seed, with the default
// trainer except a batch of trainBatch graphs. The seed is fixed because
// it draws the curriculum, and the exact ground truth's cost is
// heavy-tailed over graphs: two seeds' curricula train 15% apart in
// graphs per second, which would swamp any change to the program.
//
// Training is deterministic, so two trainers built alike do the same
// work step for step. A run trains one and then the other, and each
// step's time is the faster of its two runs: other processes on the
// machine slow stretches of seconds by a quarter or more, and only slow.
const (
	trainSeed          = 1
	trainBatch         = 4
	trainSetupReps     = 25
	stepsPerSecond     = 8  // per trainer, so a run of n seconds takes about n seconds on 2 vCPUs
	qualityStep        = 50 // quality is scored on the agent after this many steps
	trainQualityStages = 4  // stages of the Table I quality schedules
)

func trainConfig() rl.Config { return rl.Config{Seed: trainSeed, BatchSize: trainBatch} }

// trainSteps is the step count per trainer for a run of about seconds.
// It is fixed rather than timed so that every run trains on the same
// graphs.
func trainSteps(seconds int) int { return max(minSamples(0.9), stepsPerSecond*seconds) }

// stepOK is rl-train's output check on one step: a reward in [0,1] and
// finite gradient and entropy statistics.
func stepOK(st rl.IterStats) error {
	if st.MeanReward < 0 || st.MeanReward > 1 || math.IsNaN(st.MeanReward) {
		return fmt.Errorf("step %d: mean reward %v outside [0,1]", st.Iter, st.MeanReward)
	}
	for _, v := range []float64{st.GradNorm, st.MeanEntropy, st.MeanBase} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("step %d: non-finite statistic %v", st.Iter, v)
		}
	}
	return nil
}

// trainRun is the record of n training steps.
type trainRun struct {
	lat      []float64 // per step, ms
	ok       int       // steps that passed stepOK
	firstErr error
}

// steps runs n steps of trainer, snapshotting the model after
// qualityStep steps into *snap when snap is set. With tr set, every step
// is a span.
func steps(trainer *rl.Trainer, n int, snap **ptrnet.Model, tr *tracer) trainRun {
	var r trainRun
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st := trainer.Step(i)
		t1 := time.Now()
		tr.add("rl.step", -1, tr.request(), t0, t1)
		r.lat = append(r.lat, ms(t1.Sub(t0)))
		if err := stepOK(st); err != nil {
			if r.firstErr == nil {
				r.firstErr = err
			}
		} else {
			r.ok++
		}
		if i+1 == qualityStep && snap != nil {
			*snap = trainer.Model.Clone()
		}
	}
	return r
}

// faster returns the per-step minimum of two runs of the same steps.
func faster(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = min(a[i], b[i])
	}
	return out
}

// graphsPerSec is training throughput over steps of the given times.
func graphsPerSec(lat []float64) float64 {
	total := 0.0
	for _, v := range lat {
		total += v
	}
	return float64(len(lat)*trainBatch) / (total / 1000)
}

// newTrainers builds trainSetupReps trainers (about a millisecond each)
// and returns the last two with the median construction time in seconds.
// It collects the garbage after each untimed, so that the discarded
// trainers never raise the process's peak resident set.
func newTrainers() (a, b *rl.Trainer, setup float64, err error) {
	var times []float64
	for i := 0; i < trainSetupReps; i++ {
		start := time.Now()
		t, err := rl.NewTrainer(trainConfig())
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		a, b = b, t
		runtime.GC()
	}
	return a, b, median(times), nil
}

// runRLTrain measures training in-process. Untraced, it reports the
// end-to-end metrics; traced, the step latency and the tracing overhead,
// with one trainer untraced and the other traced over the same steps.
func runRLTrain(o options, tr *tracer) (*report, error) {
	ta, tb, setup, err := newTrainers()
	if err != nil {
		return nil, err
	}
	n := trainSteps(o.seconds)
	runtime.GC()
	var snap *ptrnet.Model
	a := steps(ta, n, &snap, nil)
	// The peak resident set is read once the first trainer is done: the
	// second repeats its work for the step times, and its garbage,
	// collected at other moments, only adds GC timing to the peak.
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	b := steps(tb, n, nil, tr)
	rep := &report{metrics: map[string]metric{}, attempted: 2 * n, samples: n}
	rep.failed = 2*n - a.ok - b.ok
	for _, t := range []*rl.Trainer{ta, tb} {
		if err := nn.CheckFinite(t.Model.Params()); err != nil {
			rep.failed++
			a.firstErr = err
		}
	}
	for _, e := range []error{a.firstErr, b.firstErr} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "respectbench: first failure:", e)
		}
	}
	rep.checkFailures = rep.failed
	if tr != nil {
		rep.metrics["rl.step_ms"] = metric{median(b.lat), "ms"}
		rep.metrics["trace.overhead_ratio"] = metric{graphsPerSec(a.lat) / graphsPerSec(b.lat), "ratio"}
		return rep, nil
	}
	graphs, err := models.LoadMany(models.TableINames()...)
	if err != nil {
		return nil, err
	}
	keys := make([]key, len(graphs))
	for i := range graphs {
		keys[i] = key{graph: i, stages: trainQualityStages}
	}
	q, err := qualityVsCompiler(graphs, keys, func(k key) ([]int, error) {
		s, err := rl.Schedule(snap, ta.EmbedCfg, graphs[k.graph], k.stages)
		if err != nil {
			return nil, err
		}
		return s.Stage, nil
	})
	if err != nil {
		return nil, err
	}
	lat := faster(a.lat, b.lat)
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = metric{setup, "s"}
	rep.metrics["graphs_per_s"] = metric{graphsPerSec(lat), "1/s"}
	rep.metrics["latency_p50_ms"] = metric{p50, "ms"}
	rep.metrics["latency_p90_ms"] = metric{p90, "ms"}
	rep.metrics["within_budget_ratio"] = metric{float64(2*n-rep.failed) / float64(2*n), "ratio"}
	rep.metrics["quality_vs_compiler"] = metric{q, "ratio"}
	rep.metrics["max_rss_mb"] = metric{rss, "MB"}
	return rep, nil
}
