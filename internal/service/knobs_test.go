package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
	"repro/internal/testutil"
)

// TestKnobPlumbingReachesSolver: every JobSpec search knob must arrive at
// the solve function exactly as submitted.
func TestKnobPlumbingReachesSolver(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]JobSpec{}
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		mu.Lock()
		seen[g.Name()] = spec
		mu.Unlock()
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}})
	defer svc.Close()

	g := graph.Random("knobs", 10, 20, 3)
	want := JobSpec{
		K: 5, Engine: pbsolver.EnginePueblo,
		InstanceDependent: true,
		Knobs: core.Knobs{Knobs: pbsolver.Knobs{
			ChronoThreshold: 7, VivifyBudget: 1234, DynamicLBD: true,
			GlueLBD: 3, ReduceInterval: 4000, RestartBase: 64,
		}},
	}
	id, err := svc.Submit(g, want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := seen["knobs"]
	mu.Unlock()
	if got != want {
		t.Fatalf("solver saw spec %+v, submitted %+v", got, want)
	}
}

// TestKnobsShareCacheEntries: the search knobs steer the solver without
// changing answers, so two jobs on the same graph that differ only in
// knobs must share one cache entry — while a spec field that is part of
// the key (K) must not.
func TestKnobsShareCacheEntries(t *testing.T) {
	runs := 0
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs++
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}})
	defer svc.Close()

	g := graph.Random("shared", 12, 30, 5)
	submitAndWait := func(spec JobSpec) *Result {
		t.Helper()
		id, err := svc.Submit(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Result == nil {
			t.Fatalf("job %s finished %s without result", id, info.State)
		}
		return info.Result
	}

	first := submitAndWait(JobSpec{K: 6})
	tuned := submitAndWait(JobSpec{K: 6, Knobs: core.Knobs{Knobs: pbsolver.Knobs{ChronoThreshold: 2, VivifyBudget: 500, DynamicLBD: true}}})
	if !tuned.CacheHit {
		t.Fatal("job differing only in search knobs missed the cache")
	}
	if tuned.Chi != first.Chi {
		t.Fatalf("cached result chi=%d, original chi=%d", tuned.Chi, first.Chi)
	}
	if runs != 1 {
		t.Fatalf("solver ran %d times, want 1 (knobs are not part of the key)", runs)
	}

	other := submitAndWait(JobSpec{K: 7, Knobs: core.Knobs{Knobs: pbsolver.Knobs{ChronoThreshold: 2}}})
	if other.CacheHit {
		t.Fatal("job with a different K (part of the key) hit the cache")
	}
	if runs != 2 {
		t.Fatalf("solver ran %d times after a K change, want 2", runs)
	}
}

// TestDefaultSolveAppliesKnobs runs the real coloring flow with every knob
// enabled and cross-checks the answer against the brute-force oracle.
func TestDefaultSolveAppliesKnobs(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	defer svc.Close()
	g := graph.Random("oracle", 8, 16, 1)
	chi := testutil.BruteForceChromatic(g)
	id, err := svc.Submit(g, JobSpec{
		K: 8, Knobs: core.Knobs{Knobs: pbsolver.Knobs{ChronoThreshold: 1, VivifyBudget: 500, DynamicLBD: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || !info.Result.Solved {
		t.Fatalf("job did not solve: %+v", info)
	}
	if info.Result.Chi != chi {
		t.Fatalf("chi = %d with knobs on, brute force says %d", info.Result.Chi, chi)
	}
	if err := testutil.CheckColoring(g, info.Result.Coloring, 8); err != nil {
		t.Fatal(err)
	}
}

// TestCancelThenResubmit is the cache edge case: a cancelled leader must
// not poison the canonical cache — its non-definitive entry is removed, so
// an identical resubmission solves fresh and succeeds.
func TestCancelThenResubmit(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	started := make(chan struct{})
	var once sync.Once
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			once.Do(func() { close(started) })
			<-ctx.Done()                            // simulate a long solve that only ends on cancel
			return core.Outcome{Instance: g.Name()} // StatusUnknown: non-definitive
		}
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}})
	defer svc.Close()

	g := graph.Random("resubmit", 14, 30, 7)
	id1, err := svc.Submit(g, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := svc.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	info1, err := svc.Wait(context.Background(), id1)
	if err != nil {
		t.Fatal(err)
	}
	if info1.State != StateCanceled.String() {
		t.Fatalf("first job state %s, want canceled", info1.State)
	}

	// Resubmission of the same graph+spec must get its own fresh solve —
	// neither a poisoned cache entry nor a forever-pending singleflight.
	id2, err := svc.Submit(g, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	info2, err := svc.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.State != StateDone.String() || info2.Result == nil || !info2.Result.Solved {
		t.Fatalf("resubmitted job: state %s result %+v, want done+solved", info2.State, info2.Result)
	}
	if info2.Result.CacheHit {
		t.Fatal("resubmitted job reported a cache hit off a cancelled leader")
	}
	if calls != 2 {
		t.Fatalf("solver ran %d times, want 2 (cancelled run + fresh run)", calls)
	}
	st := svc.Stats()
	if st.Canceled != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 canceled and 1 completed", st)
	}
}
