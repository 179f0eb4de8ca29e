package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pbsolver"
)

// TestParallelJobEndToEnd drives a real cube-and-conquer solve through the
// service and checks the result carries the subsystem's counters.
func TestParallelJobEndToEnd(t *testing.T) {
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
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	r := info.Result
	if r == nil || r.Status != pbsolver.StatusOptimal || r.Chi != 5 {
		t.Fatalf("result %+v, want optimal chi=5", r)
	}
	if r.ParWorkers != 3 || r.Cubes == 0 {
		t.Fatalf("missing cube-and-conquer counters: %+v", r)
	}
	if r.Winner != "pbs2" {
		t.Fatalf("winner %q, want pbs2", r.Winner)
	}
}

// TestParallelKnobsShareCacheEntries: Parallel/CubeDepth/ShareLBD steer
// the search, never the answer, so they must be excluded from the cache
// key — a parallel job and a sequential job on the same graph share one
// solve.
func TestParallelKnobsShareCacheEntries(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 2 * time.Minute})
	defer svc.Close()

	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.Submit(g, JobSpec{K: 6, SBP: encode.SBPNU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(g, JobSpec{K: 6, SBP: encode.SBPNU, Knobs: core.Knobs{Parallel: 4, CubeDepth: 3, ShareLBD: 5}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || !info.Result.CacheHit {
		t.Fatalf("parallel resubmission missed the knob-blind cache: %+v", info.Result)
	}
	if runs := svc.Metrics().Snapshot().Int("solver_runs"); runs != 1 {
		t.Fatalf("want 1 solver run, got %d", runs)
	}
}

// TestParallelBnBCacheHitKeepsWinner: a parallel job with engine bnb is
// conquered by pbs2 workers and says so; a cache hit on that solve must
// report the same winner, not the engine the spec named.
func TestParallelBnBCacheHitKeepsWinner(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 2 * time.Minute})
	defer svc.Close()

	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{K: 6, SBP: encode.SBPNU, Engine: pbsolver.EngineBnB, Knobs: core.Knobs{Parallel: 2}}
	for i, wantHit := range []bool{false, true} {
		id, err := svc.Submit(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		r := info.Result
		if r == nil || !r.Solved || r.CacheHit != wantHit {
			t.Fatalf("submission %d: result %+v, want solved with cache_hit=%t", i, r, wantHit)
		}
		if r.Winner != "pbs2" {
			t.Fatalf("submission %d (cache_hit=%t): winner %q, want pbs2", i, r.CacheHit, r.Winner)
		}
	}
}
