package main

// metricDef declares one reported metric. BENCHMARK.json repeats the
// names, units and directions (a test keeps the two in step); the
// meaning, the inputs a per-layer metric is measured over, and the
// end-to-end metric it should move live only here.
type metricDef struct {
	name, unit, better string
	meaning            string
	moves              string // per-layer: the end-to-end metric and workload it should move
}

// endToEnd is what an untraced run of every workload reports. Serving
// workloads measure respect-serve over one closed-loop connection;
// rl-train measures rl.Trainer in-process.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower",
		meaning: "median of several set-ups: respect-serve exec until /healthz answers and /v1/stats warmed_schedules covers the zoo; for rl-train, rl.NewTrainer. Input generation and agent training are excluded"},
	{name: "graphs_per_s", unit: "1/s", better: "higher",
		meaning: "graphs scheduled per second, one per 200 /v1/schedule and one per /v1/batch item, over the run's fastest segments (see segmentLen); for rl-train, training graphs per second over each step's faster run (see rltrain.go)"},
	{name: "latency_p50_ms", unit: "ms", better: "lower",
		meaning: "median client round trip per request over the same segments; for rl-train, per Trainer.Step"},
	{name: "latency_p90_ms", unit: "ms", better: "lower",
		meaning: "p90 of the same samples, which number at least 100 so that ten lie beyond it"},
	{name: "within_budget_ratio", unit: "ratio", better: "higher",
		meaning: "share of timed requests answered 200 within their class budget with every output check passed (transport errors, non-200s, batch items carrying an error and failed checks are misses); for rl-train, share of steps whose statistics passed their check"},
	{name: "quality_vs_compiler", unit: "ratio", better: "higher",
		meaning: "geometric mean over a seed-fixed set of served (graph, stages) keys of tpu.Simulate(Coral) throughput of the served schedule over the compiler backend's; for rl-train, the agent's greedy schedules of the Table I models at 4 stages after 50 steps. Deterministic per seed, and the same on every seed for zoo-hit and rl-infer"},
	{name: "max_rss_mb", unit: "MB", better: "lower",
		meaning: "VmHWM of the respect-serve process; for rl-train, of the benchmark process once the first of its two trainers has run"},
}

// perLayer is what a traced run of every workload reports. The serve.*
// metrics come from the workload's own traced requests (rl-train, which
// has no server, traces zoo-hit traffic); the rest probe each layer's
// public entry point over the inputs of the workload named in moves.
var perLayer = []metricDef{
	{name: "serve.handler_ms", unit: "ms", better: "lower", meaning: "median trace total_ms",
		moves: "latency_p50_ms on zoo-hit and graph-churn"},
	{name: "serve.pre_solve_ms", unit: "ms", better: "lower", meaning: "median total_ms - solve_ms - queue_wait_ms: decode, graph resolve, validation",
		moves: "latency_p50_ms on zoo-hit"},
	{name: "serve.solve_ms", unit: "ms", better: "lower", meaning: "median trace solve_ms: cache lookup plus race",
		moves: "latency_p90_ms on graph-churn, latency_p50_ms on rl-infer"},
	{name: "serve.transport_ms", unit: "ms", better: "lower", meaning: "median client round trip - total_ms: HTTP, response encode and write",
		moves: "latency_p50_ms on zoo-hit"},
	{name: "serve.response_kb", unit: "KB", better: "lower", meaning: "mean /v1/schedule response size",
		moves: "latency_p50_ms on zoo-hit"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher", meaning: "cache_hit share over /v1/schedule responses and /v1/batch items",
		moves: "graphs_per_s on graph-churn"},
	{name: "models.load_us", unit: "us", better: "lower", meaning: "median models.Load over zoo-hit's key sequence",
		moves: "latency_p90_ms and graphs_per_s on zoo-hit; no change on graph-churn"},
	{name: "models.load_kb", unit: "KB", better: "lower", meaning: "KB allocated per models.Load",
		moves: "max_rss_mb and graphs_per_s on zoo-hit; no change on graph-churn"},
	{name: "graph.read_json_us", unit: "us", better: "lower", meaning: "median graph.ReadJSON over graph-churn's inline graphs",
		moves: "latency_p50_ms on graph-churn; no change on zoo-hit"},
	{name: "graph.read_json_kb", unit: "KB", better: "lower", meaning: "KB allocated per graph.ReadJSON",
		moves: "latency_p50_ms on graph-churn; no change on zoo-hit"},
	{name: "heur.solve_us", unit: "us", better: "lower", meaning: "median heur Schedule over graph-churn's pool",
		moves: "latency_p90_ms on graph-churn"},
	{name: "compiler.solve_us", unit: "us", better: "lower", meaning: "median compiler Schedule over graph-churn's pool",
		moves: "latency_p90_ms on graph-churn"},
	{name: "tpu.simulate_us", unit: "us", better: "lower", meaning: "median tpu.Simulate over graph-churn's pool",
		moves: "graph-churn, if simulation moves onto the cache-fill path"},
	{name: "embed.graph_us", unit: "us", better: "lower", meaning: "median embed.Graph over the Table I models",
		moves: "latency_p50_ms, latency_p90_ms and graphs_per_s on rl-infer"},
	{name: "ptrnet.infer_ms", unit: "ms", better: "lower", meaning: "median greedy ptrnet Infer with rl-infer's agent",
		moves: "latency_p50_ms, latency_p90_ms and graphs_per_s on rl-infer"},
	{name: "sched.deploy_us", unit: "us", better: "lower", meaning: "median RepairSequence + SequenceToScheduleDP + PostProcess at 3-6 stages",
		moves: "latency_p50_ms, latency_p90_ms and graphs_per_s on rl-infer"},
	{name: "rl.step_ms", unit: "ms", better: "lower", meaning: "median Trainer.Step",
		moves: "graphs_per_s and latency_p50_ms on rl-train"},
	{name: "exact.solve_ms", unit: "ms", better: "lower", meaning: "median exact.Solve ground truth on curriculum graphs at rl's budget",
		moves: "graphs_per_s and latency_p50_ms on rl-train"},
	{name: "exact.states", unit: "count", better: "lower", meaning: "mean search states per ground-truth solve",
		moves: "graphs_per_s and latency_p50_ms on rl-train"},
	{name: "exact.truncated", unit: "count", better: "lower", meaning: "ground-truth solves cut by their budget; above 0 quality_vs_compiler stops being comparable",
		moves: "quality_vs_compiler on rl-train"},
	{name: "ptrnet.decode_ms", unit: "ms", better: "lower", meaning: "median sampled tape decode on curriculum graphs",
		moves: "graphs_per_s and latency_p50_ms on rl-train"},
	{name: "autodiff.backward_ms", unit: "ms", better: "lower", meaning: "median backward pass of that decode",
		moves: "graphs_per_s and latency_p50_ms on rl-train"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", meaning: "untraced over traced graphs_per_s of the workload, in equal halves of the traced run",
		moves: "nothing: it bounds what tracing costs"},
}
