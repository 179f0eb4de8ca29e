package service

import (
	"context"
	"math/rand"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
)

// TestWarmRestartServesFromDisk is the durability acceptance scenario:
// solve instances with a disk backend, tear the whole service down,
// bring a fresh service up over the same directory, and resubmit
// isomorphic relabelings — every one must be answered from disk with
// zero solver invocations.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	const N = 5
	bases := make([]*graph.Graph, N)
	for i := range bases {
		bases[i] = graph.Random("base", 18, 50, int64(100+i))
	}

	// First life: solve everything.
	backend, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs1 atomic.Int64
	svc := New(Config{Workers: 2, Backend: backend, Solve: countingSolve(&runs1, 0)})
	for i, g := range bases {
		id, err := svc.Submit(g, JobSpec{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Result == nil || !info.Result.Solved {
			t.Fatalf("job %d not solved: %+v", i, info)
		}
	}
	if got := runs1.Load(); got != N {
		t.Fatalf("first life: %d solver runs, want %d", got, N)
	}
	svc.Close() // closes the backend and its store

	// Second life: a brand-new service over the same directory. Isomorphic
	// relabelings of every instance must be cache hits served from disk —
	// the restart must not cost a single solver invocation.
	backend2, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if backend2.Len() != N {
		t.Fatalf("reloaded backend holds %d records, want %d", backend2.Len(), N)
	}
	var runs2 atomic.Int64
	svc2 := New(Config{Workers: 2, Backend: backend2, Solve: countingSolve(&runs2, 0)})
	defer svc2.Close()
	for i, g := range bases {
		iso := relabel("iso", g, randomPerm(rng, g.N()))
		id, err := svc2.Submit(iso, JobSpec{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc2.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		r := info.Result
		if r == nil || !r.Solved {
			t.Fatalf("resubmission %d not solved: %+v", i, info)
		}
		if !r.CacheHit {
			t.Fatalf("resubmission %d was not a cache hit", i)
		}
		if !iso.IsProperColoring(r.Coloring) {
			t.Fatalf("resubmission %d: translated coloring is improper", i)
		}
	}
	if got := runs2.Load(); got != 0 {
		t.Fatalf("second life ran the solver %d times, want 0", got)
	}
	if hits := svc2.Metrics().Snapshot().Int("cache_hits"); hits != N {
		t.Fatalf("second life: %d cache hits, want %d", hits, N)
	}
}

// TestUnsolvedOutcomesAreNotPersisted: budget-exhausted results must not
// create durable records.
func TestUnsolvedOutcomesAreNotPersisted(t *testing.T) {
	dir := t.TempDir()
	backend, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	unknownSolve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		out := core.Outcome{Instance: g.Name()}
		out.Result.Status = pbsolver.StatusUnknown
		return out
	}
	svc := New(Config{Workers: 1, Backend: backend, Solve: unknownSolve})
	g := graph.Random("g", 12, 30, 3)
	id, err := svc.Submit(g, JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	backend2, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer backend2.Close()
	if backend2.Len() != 0 {
		t.Fatalf("unsolved outcome was persisted: %d records", backend2.Len())
	}
}

// TestWaiterResolvePersists: when a leader's solve is not definitive, a
// waiter that falls back to solving on its own must still persist its
// definitive answer — the equivalence class may not be lost to the cache.
func TestWaiterResolvePersists(t *testing.T) {
	backend := NewMemoryBackend(16)
	g := graph.Random("g", 14, 40, 21)
	block := make(chan struct{})
	var calls atomic.Int64
	leader := make(chan string, 1)
	solve := func(ctx context.Context, gg *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		if calls.Add(1) == 1 {
			// Leader: whichever job finished canonical labeling first.
			// Record it (the service labels the solve context with the job
			// id), hold the singleflight slot until the waiter joined, then
			// come back empty-handed (budget-exhausted shape).
			id, _ := pprof.Label(ctx, "job")
			leader <- id
			<-block
			out := core.Outcome{Instance: gg.Name()}
			out.Result.Status = pbsolver.StatusUnknown
			return out
		}
		col, k := greedyColor(gg)
		out := core.Outcome{Instance: gg.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}
	svc := New(Config{Workers: 2, Backend: backend, Solve: solve})
	defer svc.Close()

	idA, err := svc.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := svc.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until both workers are busy: the leader inside the stub, the
	// waiter parked on the singleflight entry.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().Snapshot().Int("running") != 2 {
		if time.Now().After(deadline) {
			t.Fatal("jobs did not both start")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)

	lead, waiter := <-leader, idB
	if lead == idB {
		waiter = idA
	}
	if _, err := svc.Wait(context.Background(), lead); err != nil {
		t.Fatal(err)
	}
	infoW, err := svc.Wait(context.Background(), waiter)
	if err != nil {
		t.Fatal(err)
	}
	if infoW.Result == nil || !infoW.Result.Solved {
		t.Fatalf("waiter fallback did not solve: %+v", infoW)
	}
	if backend.Len() != 1 {
		t.Fatalf("waiter's definitive result not persisted (backend len %d)", backend.Len())
	}

	// A third isomorphic submission is now a pure cache hit.
	idC, err := svc.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	infoC, err := svc.Wait(context.Background(), idC)
	if err != nil {
		t.Fatal(err)
	}
	if infoC.Result == nil || !infoC.Result.CacheHit {
		t.Fatalf("resubmission after waiter solve missed the cache: %+v", infoC.Result)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver calls = %d, want 2", got)
	}
}

// TestCorruptRecordFallsBackToSolving: a record whose coloring cannot
// serve the submitted graph degrades to a fresh solve, never a wrong
// answer.
func TestCorruptRecordFallsBackToSolving(t *testing.T) {
	backend := NewMemoryBackend(16)
	g := graph.Random("g", 14, 40, 11)
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Backend: backend, Solve: countingSolve(&runs, 0)})
	defer svc.Close()

	id, err := svc.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}

	// Sabotage the single stored record: an all-zero "coloring" cannot be
	// proper on a graph with edges.
	backend.mu.Lock()
	for k, rec := range backend.entries {
		rec.CanonColoring = make([]int, g.N())
		backend.entries[k] = rec
	}
	backend.mu.Unlock()

	id, err = svc.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("corrupt record did not trigger a re-solve (runs = %d)", runs.Load())
	}
	if info.Result == nil || !info.Result.Solved || info.Result.CacheHit {
		t.Fatalf("re-solve result wrong: %+v", info.Result)
	}
	if !g.IsProperColoring(info.Result.Coloring) {
		t.Fatal("re-solve returned improper coloring")
	}
}
