package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"respect/internal/models"
	"respect/internal/rl"
	"respect/internal/serve"
)

// setupReps is how many times a run starts respect-serve (a few ms
// each); setup_s is the median, which keeps one slow exec from moving it.
const setupReps = 9

// rl-infer's agent: a short run of the default configuration at half its
// width, so a run decodes enough graphs to fill several segments (see
// segmentLen); decode time still grows with the square of the node count
// and dominates. The agent is trained from one fixed seed: its weights
// alone move decode time by 15% between two seeds' agents on the same
// graphs, so a per-seed agent would make the spread across seeds measure
// agents, not the program. The run's seed draws the request order.
const (
	agentSeed   = 1
	agentIters  = 20
	agentBatch  = 8
	agentHidden = 32
)

// savedResp is a response kept for the checks made after the clock.
type savedResp struct {
	req    int
	body   []byte
	timed  bool
	within bool // counted within budget when it arrived
}

// loadgen sends a workload's requests over one keep-alive connection in a
// closed loop: the next request leaves when the previous answer is read.
type loadgen struct {
	t     *traffic
	s     *server
	pos   int    // next position in t.seq
	first []bool // per request: a response was already saved
	saved []savedResp
	buf   bytes.Buffer

	attempted, failed int
	firstErr          error
}

func newLoadgen(t *traffic, s *server) *loadgen {
	return &loadgen{t: t, s: s, first: make([]bool, len(t.reqs))}
}

// sent is one request's outcome; body is valid until the next send.
type sent struct {
	req    *request
	lat    time.Duration
	ok     bool // 200, and no batch item carrying an error
	within bool // ok and answered within the class budget
	body   []byte
}

// send issues the next request of the sequence.
func (d *loadgen) send(traced, timed bool) sent {
	i := d.pos
	ri := int(d.t.seq[i%len(d.t.seq)])
	d.pos++
	r := &d.t.reqs[ri]
	body := r.body
	if traced && r.traced != nil {
		body = r.traced
	}
	start := time.Now()
	resp, err := d.s.client.Post(d.s.url+r.path, "application/json", bytes.NewReader(body))
	if err == nil {
		d.buf.Reset()
		_, err = d.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: %s: %s", r.path, resp.Status, bytes.TrimSpace(d.buf.Bytes()))
		}
	}
	lat := time.Since(start)
	out := sent{req: r, lat: lat, body: d.buf.Bytes()}
	// A batch item's error field is the only place "error" can appear as
	// a key in a 200 batch response.
	if err == nil && r.path == "/v1/batch" && bytes.Contains(out.body, []byte(`"error":`)) {
		err = fmt.Errorf("%s: an item carries an error", r.path)
	}
	d.attempted++
	if err != nil {
		d.failed++
		if d.firstErr == nil {
			d.firstErr = err
		}
		return out
	}
	out.ok = true
	out.within = lat <= r.budget
	if !d.first[ri] || (timed && d.t.checked(i)) {
		d.first[ri] = true
		d.saved = append(d.saved, savedResp{req: ri, body: bytes.Clone(out.body), timed: timed, within: out.within})
	}
	return out
}

// measure runs the closed loop for at least dur and at least min
// requests, ending on a segment boundary. onSent, if set, sees every
// response: the traced run decodes timelines there, inside the clock,
// which is what tracing costs.
func (d *loadgen) measure(dur time.Duration, min int, traced bool, onSent func(sent, time.Time)) (measured, error) {
	var m measured
	runtime.GC()
	start := time.Now()
	for {
		reqStart := time.Now()
		s := d.send(traced, true)
		graphs := 0
		if s.ok {
			graphs = len(s.req.keys)
		}
		m.record(s.lat, graphs, s.within)
		if onSent != nil && s.ok {
			onSent(s, reqStart)
		}
		el := time.Since(start)
		n := len(m.lat)
		if n%d.t.round == 0 && m.cut(el) && el >= dur && n >= min {
			return m, nil
		}
		if el >= maxRunFactor*dur {
			return m, fmt.Errorf("only %d requests in %v, need %d", n, el, min)
		}
	}
}

// maxRunFactor bounds how far a run may outlast --seconds while it
// gathers its minimum sample count.
const maxRunFactor = 6

// serverArgs returns a workload's respect-serve flags.
func serverArgs(workload, agent string) []string {
	switch workload {
	case workloadChurn:
		return []string{"-cache", fmt.Sprint(churnCache)}
	case workloadRLInfer:
		return []string{"-agent", agent}
	}
	return nil
}

// trainAgent trains rl-infer's agent and saves it under dir.
func trainAgent(dir string) (string, error) {
	tr, err := rl.NewTrainer(rl.Config{Seed: agentSeed, Hidden: agentHidden, Iterations: agentIters, BatchSize: agentBatch})
	if err != nil {
		return "", err
	}
	if err := tr.Train(nil); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "agent.gob")
	return path, tr.Model.SaveFile(path)
}

// setUp starts respect-serve setupReps times, keeping the last, and
// returns it with the median exec-to-ready time in seconds.
func setUp(bin string, args []string) (*server, float64, error) {
	warmed := int64(len(models.Names()))
	var times []float64
	var s *server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, d, err = startServer(bin, args, warmed); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return s, median(times), nil
}

// runServing runs a serving workload end to end: generate inputs, set
// up respect-serve, send the warm-up prefix, measure, then check every
// saved response and score quality. With tr set it instead measures an
// untraced and a traced half and reports the per-layer serving metrics.
func runServing(o options, t *traffic, agent string, tr *tracer) (*report, error) {
	s, setup, err := setUp(o.serveBin, serverArgs(o.workload, agent))
	if err != nil {
		return nil, err
	}
	defer s.stop()
	d := newLoadgen(t, s)
	for d.pos < t.warm {
		d.send(false, false)
	}
	min := minSamples(0.9)
	rep := &report{metrics: map[string]metric{}}
	dur := time.Duration(o.seconds) * time.Second
	var m measured
	if tr == nil {
		if m, err = d.measure(dur, min, false, nil); err != nil {
			return nil, err
		}
	} else {
		if m, err = d.measure(dur/2, min, false, nil); err != nil {
			return nil, err
		}
		st := &serveTrace{tr: tr}
		traced, err := d.measure(dur/2, min, true, st.observe)
		if err != nil {
			return nil, err
		}
		if err := st.report(rep.metrics); err != nil {
			return nil, err
		}
		plainRate, _, _, err := m.figures()
		if err != nil {
			return nil, err
		}
		tracedRate, _, _, err := traced.figures()
		if err != nil {
			return nil, err
		}
		rep.metrics["trace.overhead_ratio"] = metric{plainRate / tracedRate, "ratio"}
		rep.samples = len(traced.lat)
	}
	rep.samples += len(m.lat)
	rss, err := s.maxRSSMB()
	if err != nil {
		return nil, err
	}
	s.stop()

	first, errs := firstSolves(t.graphs, t.reqs, d.saved)
	checkFailures := 0
	for i, e := range errs {
		if e == nil {
			continue
		}
		checkFailures++
		if d.firstErr == nil {
			d.firstErr = e
		}
		if d.saved[i].timed && d.saved[i].within {
			m.within--
		}
	}
	if d.firstErr != nil {
		fmt.Fprintln(os.Stderr, "respectbench: first failure:", d.firstErr)
	}
	rep.attempted, rep.failed, rep.checkFailures = d.attempted, d.failed+checkFailures, checkFailures
	if tr != nil {
		return rep, nil
	}
	q, err := qualityVsCompiler(t.graphs, t.quality, func(k key) ([]int, error) {
		if st, ok := first[k]; ok {
			return st, nil
		}
		return nil, fmt.Errorf("%s at %d stages was never served", t.graphs[k.graph].Name, k.stages)
	})
	if err != nil {
		return nil, err
	}
	gps, p50, p90, err := m.figures()
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = metric{setup, "s"}
	rep.metrics["graphs_per_s"] = metric{gps, "1/s"}
	rep.metrics["latency_p50_ms"] = metric{p50, "ms"}
	rep.metrics["latency_p90_ms"] = metric{p90, "ms"}
	rep.metrics["within_budget_ratio"] = metric{float64(m.within) / float64(len(m.lat)), "ratio"}
	rep.metrics["quality_vs_compiler"] = metric{q, "ratio"}
	rep.metrics["max_rss_mb"] = metric{rss, "MB"}
	return rep, nil
}

// serveTrace turns traced responses into spans and the serving layers'
// per-request figures.
type serveTrace struct {
	tr                                      *tracer
	handler, preSolve, solve, transport, kb []float64
	hits, items                             int
}

// tracedResponse is the part of either endpoint's response the trace
// reads: /v1/schedule's cache flag and timeline, /v1/batch's items.
type tracedResponse struct {
	CacheHit bool             `json:"cache_hit"`
	Trace    *serve.TraceJSON `json:"trace"`
	Items    []struct {
		CacheHit bool `json:"cache_hit"`
	} `json:"items"`
}

// observe records one traced request: a client span, and inside it the
// server's handler span split into pre-solve, queue wait and solve (with
// each raced backend under solve). The server reports durations, not its
// clock, so the handler span is centred in the round trip.
func (st *serveTrace) observe(s sent, start time.Time) {
	var resp tracedResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return // the after-the-clock checks report undecodable bodies
	}
	req := st.tr.request()
	end := start.Add(s.lat)
	root := st.tr.add("client.request", -1, req, start, end)
	if resp.Trace == nil { // /v1/batch has no timeline
		for _, it := range resp.Items {
			st.items++
			if it.CacheHit {
				st.hits++
			}
		}
		return
	}
	st.items++
	if resp.CacheHit {
		st.hits++
	}
	tj := resp.Trace
	total := time.Duration(tj.TotalMS * float64(time.Millisecond))
	pre := tj.TotalMS - tj.SolveMS - tj.QueueWaitMS
	hStart := start.Add((s.lat - total) / 2)
	h := st.tr.add("serve.handler", root, req, hStart, hStart.Add(total))
	at := func(off float64) time.Time { return hStart.Add(time.Duration(off * float64(time.Millisecond))) }
	st.tr.add("serve.pre_solve", h, req, at(0), at(pre))
	st.tr.add("serve.queue_wait", h, req, at(pre), at(pre+tj.QueueWaitMS))
	solveAt := pre + tj.QueueWaitMS
	sv := st.tr.add("serve.solve", h, req, at(solveAt), at(solveAt+tj.SolveMS))
	for _, b := range tj.Backends {
		st.tr.add("backend."+b.Backend, sv, req, at(solveAt+b.StartMS), at(solveAt+b.FinishMS))
	}
	st.handler = append(st.handler, tj.TotalMS)
	st.preSolve = append(st.preSolve, pre)
	st.solve = append(st.solve, tj.SolveMS)
	st.transport = append(st.transport, ms(s.lat)-tj.TotalMS)
	st.kb = append(st.kb, float64(len(s.body))/1024)
}

// report adds the serving layers' per-layer metrics to m.
func (st *serveTrace) report(m map[string]metric) error {
	if len(st.handler) == 0 || st.items == 0 {
		return fmt.Errorf("traced run saw no timelines")
	}
	m["serve.handler_ms"] = metric{median(st.handler), "ms"}
	m["serve.pre_solve_ms"] = metric{median(st.preSolve), "ms"}
	m["serve.solve_ms"] = metric{median(st.solve), "ms"}
	m["serve.transport_ms"] = metric{median(st.transport), "ms"}
	m["serve.response_kb"] = metric{mean(st.kb), "KB"}
	m["serve.cache_hit_ratio"] = metric{float64(st.hits) / float64(st.items), "ratio"}
	return nil
}
