package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/solverutil"
)

// TestParallelSolveTraceShape drives a real cube-and-conquer solve and
// asserts the per-worker spans land as children of the solve span — not
// of the root, and not orphaned — with one span per conquer worker.
// Run under -race this also proves worker goroutines ending their spans
// concurrently with the trace's own bookkeeping is sound.
func TestParallelSolveTraceShape(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 2 * time.Minute})
	defer svc.Close()

	g, err := graph.Benchmark("myciel4")
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(g, JobSpec{K: 8, SBP: encode.SBPNU, Knobs: core.Knobs{Parallel: 3, CubeDepth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	tv, err := svc.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Spans) != 1 || tv.Spans[0].Name != "job" {
		t.Fatalf("want one root span named job, got %+v", tv.Spans)
	}
	solve := tv.Find("solve")
	if solve == nil {
		t.Fatalf("no solve span in trace %+v", tv.Spans[0])
	}
	workers := 0
	for _, c := range solve.Children {
		if c.Name == "solve.worker" {
			workers++
			// A worker span lives inside the solve interval (1ms slack
			// for millisecond rounding in the view).
			if c.StartOffsetMS < solve.StartOffsetMS-1 ||
				c.StartOffsetMS+c.DurationMS > solve.StartOffsetMS+solve.DurationMS+1 {
				t.Fatalf("worker span [%.2f,%.2f] escapes solve [%.2f,%.2f]",
					c.StartOffsetMS, c.StartOffsetMS+c.DurationMS,
					solve.StartOffsetMS, solve.StartOffsetMS+solve.DurationMS)
			}
		}
	}
	if workers == 0 {
		t.Fatalf("no solve.worker spans under solve: %+v", solve)
	}
	// None of the per-worker spans may leak to the root: the root's
	// children are the sequential job phases only.
	for _, c := range tv.Spans[0].Children {
		if c.Name == "solve.worker" || c.Name == "solve.engine" {
			t.Fatalf("%s span attached to the root instead of solve", c.Name)
		}
	}
}

// TestConcurrentJobsTraceIsolation solves several jobs at once and checks
// every trace stays self-contained: each records its own job id and its
// spans never reference another job's. Under -race this exercises the
// recorder's ring against concurrent finishes.
func TestConcurrentJobsTraceIsolation(t *testing.T) {
	svc := New(Config{Workers: 4, DefaultTimeout: time.Minute})
	defer svc.Close()

	benches := []string{"myciel3", "myciel4", "queen5_5", "myciel3"}
	ids := make([]string, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		g, err := graph.Benchmark(b)
		if err != nil {
			t.Fatal(err)
		}
		// Distinct K per duplicate bench so each job is a distinct solve.
		id, err := svc.Submit(g, JobSpec{K: 6 + i, SBP: encode.SBPNU})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Wait(context.Background(), id)
		}()
	}
	wg.Wait()

	for _, id := range ids {
		tv, err := svc.Trace(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if tv.JobID != id {
			t.Fatalf("trace for %s claims job %s", id, tv.JobID)
		}
		if len(tv.Spans) != 1 {
			t.Fatalf("job %s: %d root spans, want 1", id, len(tv.Spans))
		}
	}
	if got := len(svc.RecentTraces(16)); got < len(ids) {
		t.Fatalf("recorder holds %d traces, want >= %d", got, len(ids))
	}
}

// TestTraceAvailableAfterWait: once Wait returns, the job's trace is
// there — Trace waits the moment finish takes to record it rather than
// answering ErrNoTrace.
func TestTraceAvailableAfterWait(t *testing.T) {
	svc := New(Config{Workers: 2, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		return core.Outcome{Instance: g.Name()}
	}})
	defer svc.Close()
	g := graph.Cycle(5)
	for i := 0; i < 300; i++ {
		id, err := svc.Submit(g, JobSpec{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Trace(id); err != nil {
			t.Fatalf("round %d: Trace(%s) after Wait: %v", i, id, err)
		}
	}
}
