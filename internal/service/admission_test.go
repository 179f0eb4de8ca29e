package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
)

// gatedOrderSolve blocks every solve on gate and records the order solves
// start in (by graph name).
func gatedOrderSolve(gate chan struct{}, mu *sync.Mutex, order *[]string) SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		mu.Lock()
		*order = append(*order, g.Name())
		mu.Unlock()
		<-gate
		out := core.Outcome{Instance: g.Name(), Chi: 1, Coloring: make([]int, g.N())}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}
}

// distinctGraph returns a graph no other test graph is isomorphic to by
// accident: a path of unique length, so priority tests never collapse
// into dedup joins.
func distinctGraph(name string, n int) *graph.Graph {
	g := graph.New(name, n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// TestPriorityOrdering: with one busy worker, queued jobs dequeue by
// priority class, FIFO within a class.
func TestPriorityOrdering(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	svc := New(Config{Workers: 1, Solve: gatedOrderSolve(gate, &mu, &order)})
	defer svc.Close()

	// Occupy the single worker so subsequent submissions queue up.
	gateID, err := svc.Submit(distinctGraph("gate", 2), JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitUntilRunning(t, svc, gateID)

	submit := func(name string, n, prio int) string {
		id, err := svc.Submit(distinctGraph(name, n), JobSpec{K: 5, Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit("low-a", 3, 0)
	submit("high", 4, 5)
	submit("low-b", 5, 0)
	submit("mid", 6, 3)
	last := submit("high-b", 7, 5)

	// Release the gate; the worker drains the queue in priority order.
	close(gate)
	if _, err := svc.Wait(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	want := "gate,high,high-b,mid,low-a,low-b"
	if got != want {
		t.Fatalf("dequeue order %q, want %q", got, want)
	}
}

// TestAgingPreventsStarvation: a low-priority job that has waited longer
// than MaxPriority aging steps outranks a fresh top-priority job, so no
// class can starve another indefinitely.
func TestAgingPreventsStarvation(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	step := 20 * time.Millisecond
	svc := New(Config{Workers: 1, AgingStep: step, Solve: gatedOrderSolve(gate, &mu, &order)})
	defer svc.Close()

	gateID, err := svc.Submit(distinctGraph("gate", 2), JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitUntilRunning(t, svc, gateID)

	if _, err := svc.Submit(distinctGraph("old-low", 3), JobSpec{K: 5, Priority: 0}); err != nil {
		t.Fatal(err)
	}
	// Let the low-priority job accrue more seniority than the whole
	// priority range is worth.
	time.Sleep(time.Duration(MaxPriority+2) * step)
	last, err := svc.Submit(distinctGraph("new-high", 4), JobSpec{K: 5, Priority: MaxPriority})
	if err != nil {
		t.Fatal(err)
	}

	close(gate)
	if _, err := svc.Wait(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	if got != "gate,old-low,new-high" {
		t.Fatalf("dequeue order %q: aged job should beat fresh top priority", got)
	}
}

// TestTenantQuotaIsolation: tenant A saturating its in-flight quota is
// rejected with a typed over-quota error while tenant B keeps submitting
// freely — A cannot starve B.
func TestTenantQuotaIsolation(t *testing.T) {
	gate := make(chan struct{})
	blocking := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return core.Outcome{Instance: g.Name()}
	}
	svc := New(Config{Workers: 1, QueueDepth: 64, TenantMaxInFlight: 3, Solve: blocking})
	defer svc.Close()
	defer close(gate) // LIFO: release the solves before Close drains them

	var rejected error
	accepted := 0
	for i := 0; i < 10; i++ {
		_, err := svc.SubmitTenant("tenant-a", distinctGraph("a", 3+i), JobSpec{K: 5})
		if err != nil {
			rejected = err
			break
		}
		accepted++
	}
	if accepted != 3 {
		t.Fatalf("tenant A: %d accepts, want exactly the in-flight quota of 3", accepted)
	}
	if !errors.Is(rejected, ErrOverQuota) {
		t.Fatalf("tenant A over quota: got %v, want ErrOverQuota", rejected)
	}
	var adm *AdmissionError
	if !errors.As(rejected, &adm) || adm.Reason != ReasonOverQuota || adm.Tenant != "tenant-a" {
		t.Fatalf("over-quota detail %+v", adm)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("over-quota RetryAfter = %v, want > 0", adm.RetryAfter)
	}

	// Tenant B is unaffected by A's saturation.
	for i := 0; i < 3; i++ {
		if _, err := svc.SubmitTenant("tenant-b", distinctGraph("b", 20+i), JobSpec{K: 5}); err != nil {
			t.Fatalf("tenant B submission %d rejected: %v", i, err)
		}
	}

	st := svc.Stats()
	if st.Tenants["tenant-a"].Accepts != 3 || st.Tenants["tenant-a"].Rejects == 0 {
		t.Fatalf("tenant A stats %+v", st.Tenants["tenant-a"])
	}
	if st.Tenants["tenant-b"].Accepts != 3 || st.Tenants["tenant-b"].Rejects != 0 {
		t.Fatalf("tenant B stats %+v", st.Tenants["tenant-b"])
	}
	if st.RejectsOverQuota == 0 {
		t.Fatalf("stats %+v: expected over-quota rejects", st)
	}
}

// TestResubmitAfterWaitWithinQuota: once Wait returns, the finished job no
// longer counts against its tenant's in-flight quota, so a client that
// submits, waits and submits again is never refused — even at quota 1.
func TestResubmitAfterWaitWithinQuota(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{Workers: 1, TenantMaxInFlight: 1, Solve: countingSolve(&runs, 0)})
	defer svc.Close()
	for i := 0; i < 300; i++ {
		id, err := svc.SubmitTenant("tenant-a", distinctGraph("resubmit", 3+i%20), JobSpec{K: 5})
		if err != nil {
			t.Fatalf("submission %d refused after the previous job finished: %v", i, err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantRateLimit: the token bucket admits a burst, then rejects with
// the exact refill wait.
func TestTenantRateLimit(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{
		Workers: 1, TenantRate: 0.001, TenantBurst: 2,
		Solve: countingSolve(&runs, 0),
	})
	defer svc.Close()

	for i := 0; i < 2; i++ {
		if _, err := svc.SubmitTenant("t", distinctGraph("g", 3+i), JobSpec{K: 5}); err != nil {
			t.Fatalf("burst submission %d rejected: %v", i, err)
		}
	}
	_, err := svc.SubmitTenant("t", distinctGraph("g", 9), JobSpec{K: 5})
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("rate-limited submission: got %v, want ErrOverQuota", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.RetryAfter <= 0 {
		t.Fatalf("rate-limit rejection lacks a retry hint: %+v", adm)
	}
	// At 0.001 tokens/sec the refill wait is ~1000s — the hint must be
	// the computed wait, not the generic 1s default.
	if adm.RetryAfter < time.Minute {
		t.Fatalf("RetryAfter = %v, want the token-refill wait (minutes)", adm.RetryAfter)
	}
}

// TestTenantTableBounded: distinct tenants cannot grow the tenant table
// (and /metrics) past maxTenants once they are idle, and dropping idle
// tenants changes no admission decision: a tenant with a job in flight
// keeps its entry and its quota, and one whose rate bucket is drained
// keeps its entry and is still refused.
func TestTenantTableBounded(t *testing.T) {
	const flood = 3000
	t.Run("no rate limit", func(t *testing.T) {
		var runs atomic.Int64
		svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0)})
		defer svc.Close()
		g := distinctGraph("g", 5)
		for i := 0; i < flood; i++ {
			id, err := svc.SubmitTenant(fmt.Sprintf("tenant-%d", i), g, JobSpec{K: 5})
			if err != nil {
				t.Fatalf("submission %d: %v", i, err)
			}
			if _, err := svc.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(svc.Stats().Tenants); n > maxTenants {
			t.Fatalf("%d distinct idle tenants left %d entries, want at most %d", flood, n, maxTenants)
		}
	})
	t.Run("busy and drained tenants kept", func(t *testing.T) {
		gate := make(chan struct{})
		var runs atomic.Int64
		counting := countingSolve(&runs, 0)
		solve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
			if g.Name() == "busy" {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
			return counting(ctx, g, spec, sym, progress)
		}
		svc := New(Config{
			Workers: 1, QueueDepth: 1, TenantMaxInFlight: 1,
			TenantRate: 0.001, TenantBurst: 1, Solve: solve,
		})
		defer svc.Close()
		released := false
		defer func() {
			if !released {
				close(gate)
			}
		}()

		// "drained" spends its only token; the bucket needs ~1000 s to refill.
		id, err := svc.SubmitTenant("drained", distinctGraph("drained", 3), JobSpec{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTenant("drained", distinctGraph("drained", 4), JobSpec{K: 5}); !errors.Is(err, ErrOverQuota) {
			t.Fatalf("drained tenant: got %v, want ErrOverQuota", err)
		}
		// "busy" occupies the only worker.
		busyID, err := svc.SubmitTenant("busy", distinctGraph("busy", 6), JobSpec{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		waitUntilRunning(t, svc, busyID)

		// The first flood tenant fills the one-slot queue; the rest are
		// refused as queue_full and stay idle with full buckets.
		queuedID, err := svc.SubmitTenant("tenant-0", distinctGraph("flood", 7), JobSpec{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < flood; i++ {
			_, err := svc.SubmitTenant(fmt.Sprintf("tenant-%d", i), distinctGraph("flood", 7), JobSpec{K: 5})
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("flood submission %d: got %v, want ErrQueueFull", i, err)
			}
		}
		st := svc.Stats()
		if n := len(st.Tenants); n > maxTenants {
			t.Fatalf("%d distinct tenants left %d entries, want at most %d", flood, n, maxTenants)
		}
		if busy, ok := st.Tenants["busy"]; !ok || busy.InFlight != 1 || busy.Accepts != 1 {
			t.Fatalf("busy tenant entry %+v (present %v), want its running job counted", busy, ok)
		}
		if drained, ok := st.Tenants["drained"]; !ok || drained.Accepts != 1 || drained.Rejects != 1 {
			t.Fatalf("drained tenant entry %+v (present %v), want its counters kept", drained, ok)
		}
		if _, err := svc.SubmitTenant("busy", distinctGraph("busy", 8), JobSpec{K: 5}); !errors.Is(err, ErrOverQuota) {
			t.Fatalf("busy tenant at its in-flight quota: got %v, want ErrOverQuota", err)
		}

		close(gate)
		released = true
		for _, id := range []string{busyID, queuedID} {
			if _, err := svc.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		_, err = svc.SubmitTenant("drained", distinctGraph("drained", 9), JobSpec{K: 5})
		var adm *AdmissionError
		if !errors.As(err, &adm) || adm.Reason != ReasonOverQuota || adm.RetryAfter < time.Minute {
			t.Fatalf("drained tenant after the flood: got %v, want a rate-limit refusal with the refill wait", err)
		}
	})
}

// TestDeadlineExpiresInQueue: a job whose end-to-end deadline elapses
// while queued finishes as "expired" without the solver ever running.
func TestDeadlineExpiresInQueue(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	blocking := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return core.Outcome{Instance: g.Name()}
	}
	svc := New(Config{Workers: 1, Solve: blocking})
	defer svc.Close()

	gateID, err := svc.Submit(distinctGraph("gate", 2), JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitUntilRunning(t, svc, gateID)

	id, err := svc.Submit(distinctGraph("doomed", 4), JobSpec{K: 5, Deadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let the deadline lapse in queue
	close(gate)

	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "expired" {
		t.Fatalf("state %q, want expired", info.State)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1 (gate only) — expired job must not solve", got)
	}
	if st := svc.Stats(); st.Expired != 1 {
		t.Fatalf("stats.Expired = %d, want 1", st.Expired)
	}
}

// TestQueueWaitHistogram: dequeued jobs land in the queue-wait histogram.
func TestQueueWaitHistogram(t *testing.T) {
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0)})
	defer svc.Close()
	id, err := svc.Submit(distinctGraph("g", 5), JobSpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.QueueWait.Count != 1 {
		t.Fatalf("histogram count %d, want 1", st.QueueWait.Count)
	}
	var total int64
	for _, b := range st.QueueWait.Buckets {
		total += b.Count
	}
	if total != 1 {
		t.Fatalf("bucket counts sum to %d, want 1 (%+v)", total, st.QueueWait.Buckets)
	}
	if n := len(st.QueueWait.Buckets); n != len(QueueWaitBucketsMS)+1 {
		t.Fatalf("%d buckets, want %d (+Inf included)", n, len(QueueWaitBucketsMS)+1)
	}
}

// TestValidateFieldErrors: every out-of-bounds field is reported with its
// JSON name, all in one error.
func TestValidateFieldErrors(t *testing.T) {
	spec := JobSpec{
		K:        -1,
		Priority: MaxPriority + 1,
		Knobs:    core.Knobs{Parallel: MaxParallel + 1},
		Deadline: -time.Second,
	}
	err := spec.Validate()
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("Validate: got %v, want *ValidationError", err)
	}
	got := map[string]bool{}
	for _, f := range verr.Fields {
		got[f.Field] = true
	}
	for _, want := range []string{"k", "priority", "parallel", "deadline"} {
		if !got[want] {
			t.Fatalf("missing field error for %q in %v", want, verr.Fields)
		}
	}
	if svcErr := (JobSpec{K: 5}).Validate(); svcErr != nil {
		t.Fatalf("valid spec rejected: %v", svcErr)
	}

	// Submit must refuse an invalid spec before admission.
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if _, err := svc.Submit(distinctGraph("g", 4), spec); !errors.As(err, &verr) {
		t.Fatalf("Submit accepted an invalid spec: %v", err)
	}
	if st := svc.Stats(); st.RejectsInvalidSpec != 1 {
		t.Fatalf("RejectsInvalidSpec = %d, want 1", st.RejectsInvalidSpec)
	}
}

// waitUntilRunning polls until the job leaves the queue.
func waitUntilRunning(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != "queued" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}
