package service

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
)

// TestInexactKeyNotPersisted checks the cache-soundness fix: a solved result
// whose canonical key was truncated (inexact) is still published to in-flight
// waiters but never written to the backend — an inexact key is budget- and
// order-dependent, so a durable entry under it would be unreachable bloat at
// best and, across budget changes, a collision hazard.
func TestInexactKeyNotPersisted(t *testing.T) {
	backend := NewMemoryBackend(0)
	var runs atomic.Int64
	svc := New(Config{
		Workers: 1,
		Backend: backend,
		Solve:   countingSolve(&runs, 0),
		// A one-node budget truncates every canonical search on a graph
		// with any non-singleton refinement cell.
		CanonMaxNodes: 1,
	})
	defer svc.Close()

	id, err := svc.Submit(graph.Cycle(6), JobSpec{K: 3})
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
	if info.Result.CanonExact {
		t.Fatal("expected an inexact canonical form under CanonMaxNodes=1")
	}
	st := svc.Metrics().Snapshot()
	if st.Int("canon_inexact") == 0 {
		t.Fatal("canon_inexact not counted")
	}
	if n := st.Int("inexact_skips"); n != 1 {
		t.Fatalf("inexact_skips = %d, want 1", n)
	}
	if backend.Len() != 0 {
		t.Fatalf("inexact-keyed record persisted: backend holds %d entries", backend.Len())
	}
}

// TestCanonKeyIndependentOfDeadline checks that canonical labeling no longer
// runs under the job's deadline-derived solve context: even a job whose
// timeout has effectively already elapsed gets an exact canonical form (and
// hence a deterministic cache key), where the old wiring would have aborted
// the search mid-flight and produced a timing-dependent truncated key.
func TestCanonKeyIndependentOfDeadline(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{
		Workers:        1,
		Solve:          countingSolve(&runs, 0),
		DefaultTimeout: time.Nanosecond,
	})
	defer svc.Close()

	// Large symmetric graph: thousands of search nodes without pruning,
	// plenty of work for a 1ns deadline to interrupt were it applied.
	id, err := svc.Submit(graph.Cycle(200), JobSpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().Snapshot().Int("canon_inexact"); n != 0 {
		t.Fatalf("canonical search truncated %d times; the deadline leaked into canonicalization", n)
	}
}

// TestDiscoveredGeneratorsReachSolver checks the solver plumbing: the
// automorphism generators the canonical search discovers are handed to the
// SolveFunc so instance-symmetry breaking can lift them onto the encoding.
func TestDiscoveredGeneratorsReachSolver(t *testing.T) {
	var got atomic.Int64
	solve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		got.Store(int64(len(sym)))
		for _, p := range sym {
			if len(p) != g.N() {
				t.Errorf("generator has length %d, want %d", len(p), g.N())
			}
		}
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		out.Result.Objective = k
		return out
	}
	svc := New(Config{Workers: 1, Solve: solve})
	defer svc.Close()

	id, err := svc.Submit(graph.Cycle(12), JobSpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if got.Load() == 0 {
		t.Fatal("no discovered generators reached the solver for a cycle graph")
	}
	st := svc.Metrics().Snapshot()
	if st.Int("canon_generators") == 0 || st.Int("canon_orbit_prunes") == 0 {
		t.Fatalf("canon stats not accumulated: generators %d, orbit prunes %d", st.Int("canon_generators"), st.Int("canon_orbit_prunes"))
	}
}
