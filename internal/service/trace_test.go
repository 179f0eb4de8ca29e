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

// TestParallelSolveTraceShape drives real cube-and-conquer solves and
// asserts the per-worker spans land as children of the solve span — not
// of the root, and not orphaned — with one span per worker that ran. A
// job past worker 0's solo allowance (myciel3 at K=12 without SBPs, over
// 13,000 conflicts) splits, so all three workers run and exactly one is
// the whole-formula worker (role=whole); a job decided within it (myciel3
// at K=6 under NU) runs worker 0 alone, whose span proves the answer.
// Run under -race this also proves worker goroutines ending their spans
// concurrently with the trace's own bookkeeping is sound.
func TestParallelSolveTraceShape(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 2 * time.Minute})
	defer svc.Close()

	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	split := workerSpans(t, svc, g, JobSpec{K: 12, SBP: encode.SBPNone, Knobs: core.Knobs{Parallel: 3, CubeDepth: 4}})
	if len(split) != 3 {
		t.Fatalf("split job: %d solve.worker spans under solve, want one per worker (3)", len(split))
	}
	whole := 0
	for _, attrs := range split {
		switch attrs["role"] {
		case "whole":
			whole++
		case "cubes":
		default:
			t.Fatalf("worker span without a role: %+v", attrs)
		}
	}
	if whole != 1 {
		t.Fatalf("split job: %d role=whole worker spans, want exactly 1", whole)
	}

	solo := workerSpans(t, svc, g, JobSpec{K: 6, SBP: encode.SBPNU, Knobs: core.Knobs{Parallel: 3}})
	if len(solo) != 1 || solo[0]["role"] != "whole" || solo[0]["proved"] != true {
		t.Fatalf("solo job: worker spans %v, want one with role=whole proved=true", solo)
	}
}

// workerSpans solves one job and returns the attributes of the
// solve.worker spans under its solve span, after checking the trace's
// shape: one root, each worker span inside the solve interval and
// carrying cubes_closed and proved, and none attached to the root.
func workerSpans(t *testing.T, svc *Service, g *graph.Graph, spec JobSpec) []map[string]any {
	t.Helper()
	id, err := svc.Submit(g, spec)
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
	var spans []map[string]any
	for _, c := range solve.Children {
		if c.Name != "solve.worker" {
			continue
		}
		attrs := map[string]any{}
		for _, a := range c.Attrs {
			attrs[a.Key] = a.Value()
		}
		for _, key := range []string{"cubes_closed", "proved"} {
			if _, ok := attrs[key]; !ok {
				t.Fatalf("worker span without %s: %+v", key, c.Attrs)
			}
		}
		// A worker span lives inside the solve interval (1ms slack for
		// millisecond rounding in the view).
		if c.StartOffsetMS < solve.StartOffsetMS-1 ||
			c.StartOffsetMS+c.DurationMS > solve.StartOffsetMS+solve.DurationMS+1 {
			t.Fatalf("worker span [%.2f,%.2f] escapes solve [%.2f,%.2f]",
				c.StartOffsetMS, c.StartOffsetMS+c.DurationMS,
				solve.StartOffsetMS, solve.StartOffsetMS+solve.DurationMS)
		}
		spans = append(spans, attrs)
	}
	// None of the per-worker spans may leak to the root: the root's
	// children are the sequential job phases only.
	for _, c := range tv.Spans[0].Children {
		if c.Name == "solve.worker" || c.Name == "solve.engine" {
			t.Fatalf("%s span attached to the root instead of solve", c.Name)
		}
	}
	return spans
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
