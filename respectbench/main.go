// Command respectbench is RESPECT's benchmark. It measures the real
// respect-serve binary as its own process over loopback HTTP, and the
// layers through their public functions, on four seeded workloads:
//
//	zoo-hit      cached zoo-model schedules: serving overhead alone
//	graph-churn  inline synthetic graphs over a cache that must evict
//	rl-infer     the RL agent's greedy decode at deployment scale
//	rl-train     REINFORCE training steps in-process, no server
//
// Usage, from the repository root after building respect-serve:
//
//	respectbench --workload zoo-hit --seed 1 --seconds 15 --trace 0 \
//	    --serve .bench_build/respect-serve --out .bench_build
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and writes its spans to
// <out>/trace-<workload>-<seed>.json. Every run checks the program's
// outputs after the clock and prints, last, one JSON line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. The line
// before it is the environment stamp; results with different stamps are
// not comparable. catalog.go lists every metric and what it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"respect/internal/ptrnet"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	outDir   string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run measured.
type report struct {
	attempted, failed, checkFailures int
	samples                          int // timed requests or steps behind the percentiles
	metrics                          map[string]metric
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records the environment a result was measured in.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	ServeBuild string `json:"serve_build"`
	Samples    int    `json:"samples"`
	Attempted  int    `json:"attempted"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "respectbench:", err)
		os.Exit(2)
	}
	st, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "respectbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]stamp{"stamp": st}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("respectbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: zoo-hit, graph-churn, rl-infer or rl-train")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	fs.StringVar(&o.serveBin, "serve", ".bench_build/respect-serve", "respect-serve binary under test")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for trained agents and trace files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch {
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
	case o.seconds < 2:
		return o, fmt.Errorf("--seconds %d: need at least 2", o.seconds)
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	return o, nil
}

// run measures one workload and checks that the report carries exactly
// the metrics its mode promises.
func run(o options) (stamp, result, error) {
	st := stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return st, result{}, err
	}
	var err error
	if st.ServeBuild, err = buildID(o.serveBin); err != nil {
		return st, result{}, fmt.Errorf("respect-serve binary: %w", err)
	}
	var rep *report
	if o.trace {
		rep, err = runTraced(o, st)
	} else {
		rep, err = runUntraced(o)
	}
	if err != nil {
		return st, result{}, err
	}
	st.Samples, st.Attempted = rep.samples, rep.attempted
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if err := checkMetrics(rep.metrics, want); err != nil {
		return st, result{}, err
	}
	return st, result{Correct: rep.checkFailures == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}, nil
}

func runUntraced(o options) (*report, error) {
	if o.workload == workloadRLTrain {
		return runRLTrain(o, nil)
	}
	t, err := newTraffic(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	agent := ""
	if o.workload == workloadRLInfer {
		if agent, err = trainAgent(o.outDir); err != nil {
			return nil, err
		}
	}
	return runServing(o, t, agent, nil)
}

// traceServeSeconds is how long rl-train's traced run, which has no
// server of its own, drives zoo-hit traffic for the serving layers.
const traceServeSeconds = 4

// runTraced measures the workload with spans, then probes every layer
// over its own workload's inputs, and writes the spans out.
func runTraced(o options, st stamp) (*report, error) {
	tr := newTracer()
	agentPath, err := trainAgent(o.outDir)
	if err != nil {
		return nil, err
	}
	var rep *report
	if o.workload == workloadRLTrain {
		if rep, err = runRLTrain(o, tr); err != nil {
			return nil, err
		}
		zo := o
		zo.workload, zo.seconds = workloadZooHit, traceServeSeconds
		t, err := newTraffic(zo.workload, zo.seed)
		if err != nil {
			return nil, err
		}
		zrep, err := runServing(zo, t, "", tr)
		if err != nil {
			return nil, err
		}
		rep.attempted += zrep.attempted
		rep.failed += zrep.failed
		rep.checkFailures += zrep.checkFailures
		for name, m := range zrep.metrics {
			if _, ok := rep.metrics[name]; !ok {
				rep.metrics[name] = m
			}
		}
	} else {
		t, err := newTraffic(o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		if rep, err = runServing(o, t, agentPath, tr); err != nil {
			return nil, err
		}
		if err := probeStep(tr, rep.metrics); err != nil {
			return nil, err
		}
	}
	agent, err := ptrnet.LoadFile(agentPath)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(o.seed, agent, tr, rep.metrics); err != nil {
		return nil, err
	}
	st.Samples, st.Attempted = rep.samples, rep.attempted
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := tr.write(path, st, rep.metrics); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "respectbench: %d spans written to %s\n", len(tr.spans), path)
	return rep, nil
}

// checkMetrics reports a metric missing from m or not declared in want,
// or one carrying the wrong unit.
func checkMetrics(m map[string]metric, want []metricDef) error {
	if len(m) != len(want) {
		return fmt.Errorf("run reported %d metrics, the catalog declares %d", len(m), len(want))
	}
	for _, d := range want {
		got, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if got.Unit != d.unit {
			return fmt.Errorf("metric %s in %s, declared in %s", d.name, got.Unit, d.unit)
		}
	}
	return nil
}
