package solver

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"respect/internal/graph"
	"respect/internal/sched"
)

// genSched is a registry backend standing in for one generation of a
// hot-reloaded agent: it counts its calls, optionally blocks until
// released, and stamps every schedule with its generation (via the
// stage of the last node) so results are attributable.
type genSched struct {
	name  string
	gen   int
	calls atomic.Int64
	gate  chan struct{} // nil: never blocks
}

func (s *genSched) Name() string { return s.name }

func (s *genSched) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s.calls.Add(1)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return sched.Schedule{}, ctx.Err()
		}
	}
	out := sched.NewSchedule(g.NumNodes(), numStages)
	out.Stage[g.NumNodes()-1] = s.gen % numStages
	return out, nil
}

// TestReplaceInFlightFinishesOnOldAgent: a solve racing when Replace
// lands must complete on the generation it resolved, while the next
// request sees the new generation.
func TestReplaceInFlightFinishesOnOldAgent(t *testing.T) {
	r := NewRegistry()
	gen0 := &genSched{name: "agent", gen: 0, gate: make(chan struct{})}
	if err := r.Register(gen0); err != nil {
		t.Fatal(err)
	}
	g := chain(100, 200, 300, 400)
	dyn := Dynamic(r, "agent")

	type res struct {
		out PortfolioResult
		err error
	}
	inflight := make(chan res, 1)
	go func() {
		out, err := Portfolio(context.Background(), []Scheduler{dyn}, g, 2, PortfolioOptions{})
		inflight <- res{out, err}
	}()
	// Wait until the in-flight solve is inside gen0, then hot-reload.
	for gen0.calls.Load() == 0 {
		select {
		case early := <-inflight:
			t.Fatalf("race finished before backend entered: %+v %v", early.out, early.err)
		default:
			runtime.Gosched()
		}
	}
	gen1 := &genSched{name: "agent", gen: 1}
	if err := r.Replace(gen1); err != nil {
		t.Fatal(err)
	}
	close(gen0.gate) // release the old generation

	got := <-inflight
	if got.err != nil {
		t.Fatal(got.err)
	}
	if stamp := got.out.Schedule.Stage[g.NumNodes()-1]; stamp != 0 {
		t.Fatalf("in-flight solve served by generation %d, want old generation 0", stamp)
	}
	if gen1.calls.Load() != 0 {
		t.Fatalf("new generation called %d times during old race", gen1.calls.Load())
	}

	// A fresh request through the same dynamic handle sees gen 1.
	out, err := Portfolio(context.Background(), []Scheduler{dyn}, g, 2, PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stamp := out.Schedule.Stage[g.NumNodes()-1]; stamp != 1 {
		t.Fatalf("post-replace solve served by generation %d, want 1", stamp)
	}
	if gen0.calls.Load() != 1 || gen1.calls.Load() != 1 {
		t.Fatalf("calls not conserved: gen0=%d gen1=%d", gen0.calls.Load(), gen1.calls.Load())
	}
}

// TestReplaceHammer races a storm of portfolio solves through a dynamic
// handle against a goroutine hammering Replace. Run in CI with
// -race -count=5. Invariants: every solve succeeds with an attributable
// schedule, and the per-generation call counts sum exactly to the
// number of solves — no request is lost or double-dispatched.
func TestReplaceHammer(t *testing.T) {
	r := NewRegistry()
	const generations = 40
	gens := make([]*genSched, generations)
	for i := range gens {
		gens[i] = &genSched{name: "agent", gen: i}
	}
	if err := r.Register(gens[0]); err != nil {
		t.Fatal(err)
	}
	// A static co-racer so the portfolio always has two lanes.
	heur, err := Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	g := chain(100, 200, 300, 400, 500, 600)
	dyn := Dynamic(r, "agent")

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	stopSwap := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 1; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			if err := r.Replace(gens[i%generations]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var solves atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				out, err := Portfolio(context.Background(), []Scheduler{dyn, heur}, g, 3, PortfolioOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if len(out.Schedule.Stage) != g.NumNodes() {
					t.Errorf("malformed schedule: %+v", out)
					return
				}
				solves.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stopSwap)
	<-swapDone

	var agentCalls int64
	for _, gs := range gens {
		agentCalls += gs.calls.Load()
	}
	if want := int64(workers * perWorker); solves.Load() != want {
		t.Fatalf("completed %d solves, want %d", solves.Load(), want)
	}
	// Every race dispatches the dynamic lane exactly once to exactly one
	// generation: the sum across generations must equal the solve count.
	if agentCalls != int64(workers*perWorker) {
		t.Fatalf("agent calls %d, want %d: calls lost or duplicated across Replace", agentCalls, workers*perWorker)
	}
}
