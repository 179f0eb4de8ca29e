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

// reportingSolve emits n progress snapshots through the service's sink
// before returning a definitive outcome — a stand-in for a solver's
// rate-limited callbacks.
func reportingSolve(n int, gate chan struct{}) SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		for i := 1; i <= n; i++ {
			progress(solverutil.Progress{
				Engine:    "pbs2",
				Incumbent: 10 - i,
				Conflicts: int64(i * 100),
				Restarts:  int64(i),
			})
			if gate != nil {
				<-gate // let the test observe between snapshots
			}
		}
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}
}

// TestProgressStreaming: NextProgress must deliver every snapshot in
// order and then report the terminal transition.
func TestProgressStreaming(t *testing.T) {
	const snapshots = 3
	svc := New(Config{Workers: 1, Solve: reportingSolve(snapshots, nil)})
	defer svc.Close()

	g := graph.Random("g", 12, 30, 5)
	id, err := svc.Submit(g, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seq int64
	var got []Progress
	for {
		p, more, err := svc.NextProgress(ctx, id, seq)
		if err != nil {
			t.Fatalf("NextProgress: %v", err)
		}
		if p.Seq > seq {
			got = append(got, p)
			seq = p.Seq
		}
		if !more {
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("no progress snapshots before the terminal state")
	}
	last := got[len(got)-1]
	if last.Seq != snapshots {
		t.Fatalf("final Seq = %d, want %d", last.Seq, snapshots)
	}
	if last.Conflicts != snapshots*100 || last.Engine != "pbs2" {
		t.Fatalf("final snapshot wrong: %+v", last)
	}
	if last.K != 6 {
		t.Fatalf("progress K = %d, want effective color bound 6", last.K)
	}

	// After the terminal state the job info must carry the result.
	info, err := svc.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "done" || info.Result == nil {
		t.Fatalf("terminal job info: %+v", info)
	}
}

// TestProgressLatestSnapshot: the polling accessor returns the newest
// snapshot (or Seq 0 before any report).
func TestProgressLatestSnapshot(t *testing.T) {
	gate := make(chan struct{})
	svc := New(Config{Workers: 1, Solve: reportingSolve(2, gate)})
	defer svc.Close()

	g := graph.Random("g", 10, 20, 8)
	id, err := svc.Submit(g, JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Wait until the first snapshot lands, then check Progress sees it.
	if _, _, err := svc.NextProgress(ctx, id, 0); err != nil {
		t.Fatal(err)
	}
	p, err := svc.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 1 || p.Conflicts != 100 {
		t.Fatalf("latest snapshot: %+v", p)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Progress("job-missing"); err != ErrNoSuchJob {
		t.Fatalf("Progress(missing) = %v, want ErrNoSuchJob", err)
	}
}

// TestCacheHitReportsNoProgress: jobs served from the cache never ran a
// solver, so their progress stays at Seq 0.
func TestCacheHitReportsNoProgress(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0)})
	defer svc.Close()

	g := graph.Random("g", 10, 25, 2)
	id1, err := svc.Submit(g, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id1); err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(g, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || !info.Result.CacheHit {
		t.Fatalf("second submission not a cache hit: %+v", info)
	}
	p, err := svc.Progress(id2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 0 {
		t.Fatalf("cache hit reported progress: %+v", p)
	}
}

// TestFinishedJobKeepsNoProgressWake: a streamer waiting on a job that
// never reports progress makes the job's wake channel. finish must drop
// it, and a streamer that asks once the job has ended must not make
// another; otherwise every streamed job in the finished-job history keeps
// a channel.
func TestFinishedJobKeepsNoProgressWake(t *testing.T) {
	gate := make(chan struct{})
	silent := reportingSolve(0, nil)
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		<-gate
		return silent(ctx, g, spec, sym, progress)
	}})
	defer svc.Close()

	id, err := svc.Submit(graph.Random("g", 12, 30, 5), JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	j := svc.jobs[id]
	svc.mu.Unlock()
	wake := func() chan struct{} {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.progWake
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	streamed := make(chan bool, 1)
	go func() {
		_, more, err := svc.NextProgress(ctx, id, 0)
		streamed <- err == nil && !more
	}()
	for wake() == nil {
		if ctx.Err() != nil {
			t.Fatal("the waiting streamer made no wake channel")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if !<-streamed {
		t.Fatal("the streamer did not see the job end")
	}
	if _, err := svc.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	<-j.recorded // finish has returned
	if wake() != nil {
		t.Fatal("the finished job kept its progress wake channel")
	}

	if p, more, err := svc.NextProgress(ctx, id, 0); err != nil || more || p.Seq != 0 {
		t.Fatalf("NextProgress on the finished job = %+v, %v, %v; want Seq 0, no more", p, more, err)
	}
	if wake() != nil {
		t.Fatal("NextProgress made a wake channel for a finished job")
	}
}
