package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
	"repro/internal/store"
)

// relabel returns g with vertices renamed by perm (vertex v becomes
// perm[v]) — an isomorphic copy.
func relabel(name string, g *graph.Graph, perm []int) *graph.Graph {
	out := graph.New(name, g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e[0]], perm[e[1]])
	}
	return out
}

func randomPerm(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// greedyColor is a deterministic proper coloring used by stub solvers.
func greedyColor(g *graph.Graph) ([]int, int) {
	col := make([]int, g.N())
	for i := range col {
		col[i] = -1
	}
	max := 0
	for v := 0; v < g.N(); v++ {
		used := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			if col[u] >= 0 {
				used[col[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		col[v] = c
		if c+1 > max {
			max = c + 1
		}
	}
	return col, max
}

// countingSolve returns a stub SolveFunc that counts invocations and
// produces a definitive (optimal) outcome with a real witness coloring.
func countingSolve(runs *atomic.Int64, delay time.Duration) SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return core.Outcome{Instance: g.Name()}
			}
		}
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		out.Result.Objective = k
		return out
	}
}

// TestIsomorphicDedup is the acceptance scenario: N concurrent submissions
// of relabelled copies of one graph must trigger exactly one solver run,
// with every submitter receiving an equivalent result translated into its
// own vertex numbering.
func TestIsomorphicDedup(t *testing.T) {
	const N = 8
	rng := rand.New(rand.NewSource(42))
	base := graph.Random("base", 24, 80, 9)
	var runs atomic.Int64
	// A small artificial delay keeps the leader in flight while the other
	// submissions arrive, exercising the singleflight join path (and not
	// just the completed-cache path).
	svc := New(Config{Workers: 4, Solve: countingSolve(&runs, 50*time.Millisecond)})
	defer svc.Close()

	spec := JobSpec{K: 10}
	graphs := make([]*graph.Graph, N)
	ids := make([]string, N)
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		graphs[i] = relabel("copy", base, randomPerm(rng, base.N()))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = svc.Submit(graphs[i], spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	wantChi := -1
	hits := 0
	for i, id := range ids {
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if info.State != "done" || info.Result == nil {
			t.Fatalf("job %d: state %s, result %v", i, info.State, info.Result)
		}
		r := info.Result
		if r.Status != pbsolver.StatusOptimal || !r.Solved {
			t.Fatalf("job %d: status %v", i, r.Status)
		}
		if wantChi == -1 {
			wantChi = r.Chi
		} else if r.Chi != wantChi {
			t.Fatalf("job %d: chi %d, others got %d", i, r.Chi, wantChi)
		}
		if !graphs[i].IsProperColoring(r.Coloring) {
			t.Fatalf("job %d: translated coloring is not proper for its own graph", i)
		}
		if r.CacheHit {
			hits++
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want exactly 1", got)
	}
	if hits != N-1 {
		t.Fatalf("%d cache hits, want %d", hits, N-1)
	}
	st := svc.Metrics().Snapshot()
	if st.Int("solver_runs") != 1 || st.Int("cache_hits")+st.Int("dedup_joins") != N-1 || st.Int("completed") != N {
		t.Fatalf("%d solver runs, %d cache hits, %d dedup joins, %d completed", st.Int("solver_runs"), st.Int("cache_hits"), st.Int("dedup_joins"), st.Int("completed"))
	}
}

// TestCacheHitAfterCompletion covers the cold path: a submission arriving
// after an isomorphic job already finished must hit the completed entry.
func TestCacheHitAfterCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := graph.Random("base", 16, 40, 5)
	var runs atomic.Int64
	svc := New(Config{Workers: 2, Solve: countingSolve(&runs, 0)})
	defer svc.Close()

	id1, err := svc.Submit(base, JobSpec{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id1); err != nil {
		t.Fatal(err)
	}
	iso := relabel("iso", base, randomPerm(rng, base.N()))
	id2, err := svc.Submit(iso, JobSpec{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Result.CacheHit {
		t.Fatal("second submission missed the cache")
	}
	if !iso.IsProperColoring(info.Result.Coloring) {
		t.Fatal("cached coloring not proper after translation")
	}
	if runs.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1", runs.Load())
	}
}

// TestSpecIsPartOfCacheKey: the same graph under different solver specs
// must not share results.
func TestSpecIsPartOfCacheKey(t *testing.T) {
	g := graph.Random("g", 16, 40, 5)
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0)})
	defer svc.Close()
	for _, k := range []int{8, 9} {
		id, err := svc.Submit(g, JobSpec{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2 (distinct specs)", runs.Load())
	}
}

// TestNonDefinitiveResultsNotCached: a budget-exhausted outcome must not
// poison the cache for later (possibly better-funded) submissions.
func TestNonDefinitiveResultsNotCached(t *testing.T) {
	g := graph.Random("g", 16, 40, 5)
	var runs atomic.Int64
	unknownSolve := func(ctx context.Context, gg *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs.Add(1)
		return core.Outcome{Instance: gg.Name()} // StatusUnknown
	}
	svc := New(Config{Workers: 1, Solve: unknownSolve})
	defer svc.Close()
	for i := 0; i < 2; i++ {
		id, err := svc.Submit(g, JobSpec{K: 8})
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Result == nil || info.Result.Solved {
			t.Fatalf("iteration %d: unexpected result %+v", i, info.Result)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2 (unknown results must not be cached)", runs.Load())
	}
}

// TestCancelStopsInFlightPortfolio is the acceptance scenario for
// cancellation: a job running a real engine portfolio on a hard instance
// must stop promptly when cancelled, well before its solve budget.
func TestCancelStopsInFlightPortfolio(t *testing.T) {
	// Dense random graph with K far below its chromatic number: the UNSAT
	// proof is out of reach for every engine at this size, so the
	// portfolio would run for the full budget if cancellation leaked.
	g := graph.Random("hard", 80, 1580, 7)
	svc := New(Config{Workers: 2, DefaultTimeout: 5 * time.Minute})
	defer svc.Close()

	id, err := svc.Submit(g, JobSpec{K: 10, Portfolio: true})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	info, err := svc.Wait(waitCtx, id)
	if err != nil {
		t.Fatalf("portfolio did not stop within 15s of cancellation: %v", err)
	}
	if info.State != "canceled" {
		t.Fatalf("state %s, want canceled", info.State)
	}
	t.Logf("cancelled portfolio unwound in %v", time.Since(start).Round(time.Millisecond))
}

// TestCancelQueuedJob: cancelling a job that never left the queue.
func TestCancelQueuedJob(t *testing.T) {
	var runs atomic.Int64
	block := make(chan struct{})
	blockingSolve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs.Add(1)
		<-block
		return core.Outcome{Instance: g.Name()}
	}
	svc := New(Config{Workers: 1, Solve: blockingSolve})
	defer svc.Close()

	// Distinct graphs so the second job does not join the first's entry.
	// Job 1 occupies the only worker; job 2 is cancelled while still
	// queued, then the worker is released to drain the queue.
	id1, err := svc.Submit(graph.Random("a", 12, 30, 1), JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(graph.Random("b", 12, 30, 2), JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = id1
	if err := svc.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	close(block)
	info, err := svc.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "canceled" {
		t.Fatalf("state %s, want canceled", info.State)
	}
	if runs.Load() != 1 {
		t.Fatalf("cancelled queued job still reached the solver (%d runs)", runs.Load())
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	blockingSolve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		<-block
		return core.Outcome{Instance: g.Name()}
	}
	svc := New(Config{Workers: 1, QueueDepth: 1, Solve: blockingSolve})
	defer svc.Close()
	defer close(block)

	submitted := 0
	var lastErr error
	for i := 0; i < 4; i++ {
		_, err := svc.Submit(graph.Random("g", 10, 20, int64(i)), JobSpec{K: 5})
		if err != nil {
			lastErr = err
			break
		}
		submitted++
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v after %d submissions", lastErr, submitted)
	}
	var adm *AdmissionError
	if !errors.As(lastErr, &adm) {
		t.Fatalf("queue-full rejection is not an *AdmissionError: %v", lastErr)
	}
	if adm.Reason != ReasonQueueFull || adm.RetryAfter <= 0 {
		t.Fatalf("typed rejection %+v: want reason %q and a positive RetryAfter", adm, ReasonQueueFull)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Close()
	if _, err := svc.Submit(graph.Random("g", 8, 12, 1), JobSpec{K: 4}); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

// TestEndToEndRealSolve drives the default solver through the service on a
// small instance, checking the full path (canonicalize, solve, translate).
func TestEndToEndRealSolve(t *testing.T) {
	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, DefaultTimeout: time.Minute})
	defer svc.Close()
	id, err := svc.Submit(g, JobSpec{K: 6, Portfolio: true})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	r := info.Result
	if r == nil || r.Status != pbsolver.StatusOptimal || r.Chi != 4 {
		t.Fatalf("myciel3: %+v", r)
	}
	if !g.IsProperColoring(r.Coloring) {
		t.Fatal("improper coloring")
	}
	if r.Winner == "" {
		t.Fatal("portfolio winner missing")
	}
}

// TestJobHistoryBounded: a long-running service must forget old finished
// jobs beyond MaxJobs instead of growing without bound.
func TestJobHistoryBounded(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{Workers: 1, MaxJobs: 2, Solve: countingSolve(&runs, 0)})
	defer svc.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := svc.Submit(graph.Random("g", 10, 20, int64(i)), JobSpec{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := svc.Job(ids[0]); err != ErrNoSuchJob {
		t.Fatalf("oldest job should be pruned, got err=%v", err)
	}
	if _, err := svc.Job(ids[4]); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
	if n := len(svc.Jobs()); n > 2 {
		t.Fatalf("%d jobs retained, want <= 2", n)
	}
}

// TestRunningZeroAfterWait: a job leaves the running gauge before its
// waiters wake, so a client that reads the stats the moment Wait returns
// on an idle service sees nothing running. The journal holds the worker
// in finish, after the wake, until the gauge has been read.
func TestRunningZeroAfterWait(t *testing.T) {
	disk, err := OpenDiskJournal(t.TempDir(), store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	journal := handOffJournal{Journal: disk, release: make(chan struct{})}
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Journal: journal, Solve: countingSolve(&runs, 0)})
	defer svc.Close()
	defer close(journal.release) // lets the worker go on after a failure
	for i := 0; i < 200; i++ {
		id, err := svc.Submit(graph.Random("g", 10, 20, int64(i)), JobSpec{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if n := svc.Metrics().Snapshot().Int("running"); n != 0 {
			t.Fatalf("job %d: running = %d right after Wait, want 0", i, n)
		}
		journal.release <- struct{}{}
	}
}

// handOffJournal is a Journal whose Done waits for a receive on release.
type handOffJournal struct {
	Journal
	release chan struct{}
}

func (j handOffJournal) Done(id string) error {
	<-j.release
	return j.Journal.Done(id)
}

// TestFinishedJobDropsGraph: a finished job keeps its instance name for
// status and logs but not the graph or its live trace, so the job history
// (up to MaxJobs finished jobs) does not hold every graph it has seen.
// The graph is gone once Wait returns; the trace is finalized after
// waiters wake, so it is checked once Close has waited out the worker.
// The flight recorder still serves the trace from its own copy.
func TestFinishedJobDropsGraph(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0)})
	defer svc.Close()
	g := graph.Random("kept-name", 10, 20, 1)
	id, err := svc.Submit(g, JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone.String() || info.Instance != "kept-name" {
		t.Fatalf("Wait: state %q instance %q, want done and kept-name", info.State, info.Instance)
	}
	svc.mu.Lock()
	j := svc.jobs[id]
	svc.mu.Unlock()
	j.mu.Lock()
	graphHeld := j.g != nil
	j.mu.Unlock()
	if graphHeld {
		t.Fatal("finished job still holds its graph")
	}
	svc.Close()
	j.mu.Lock()
	traceHeld := j.trace != nil
	j.mu.Unlock()
	if traceHeld {
		t.Fatal("finished job still holds its live trace")
	}
	if got, err := svc.Job(id); err != nil || got.Instance != "kept-name" {
		t.Fatalf("Job after finish: instance %q err %v, want kept-name", got.Instance, err)
	}
	if _, err := svc.Trace(id); err != nil {
		t.Fatalf("Trace after finish: %v", err)
	}
}
