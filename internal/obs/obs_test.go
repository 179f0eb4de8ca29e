package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every operation must be a no-op without a trace in the context:
	// this is the disabled-tracing fast path every call site relies on.
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "phase")
	if sp != nil || ctx2 != ctx {
		t.Fatalf("StartSpan without a trace must return (ctx, nil)")
	}
	sp.SetAttrs(Int("n", 1))
	sp.End(Bool("ok", true))
	if sp.Name() != "" {
		t.Fatalf("nil span name = %q", sp.Name())
	}
	var tr *Trace
	if tr.StartSpan(nil, "x") != nil || tr.View() != nil || tr.ID() != "" {
		t.Fatalf("nil trace must be inert")
	}
	var rec *Recorder
	rec.Record(nil) // must not panic
	if _, ok := rec.Trace("j"); ok {
		t.Fatalf("nil recorder returned a trace")
	}
}

func TestSpanTreeShape(t *testing.T) {
	tr := NewTrace("req-1", "job-1")
	root := tr.StartSpan(nil, "job")
	a := tr.StartSpan(root, "canon", Int("nodes", 42))
	a.End(Bool("exact", true))
	ctx := ContextWithSpan(context.Background(), root)
	sctx, solve := StartSpan(ctx, "solve")
	_, w0 := StartSpan(sctx, "solve.worker", Int("worker", 0))
	w0.End()
	solve.End(Int("conflicts", 7))
	root.End()

	v := tr.View()
	if v.TraceID != "req-1" || v.JobID != "job-1" {
		t.Fatalf("ids: %+v", v)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != "job" {
		t.Fatalf("want single root 'job', got %+v", v.Spans)
	}
	if v.Find("canon") == nil || v.Find("solve") == nil {
		t.Fatalf("missing phases in %+v", v)
	}
	sv := v.Find("solve")
	if len(sv.Children) != 1 || sv.Children[0].Name != "solve.worker" {
		t.Fatalf("solve children = %+v", sv.Children)
	}
	if v.Find("solve.worker").ID == 0 {
		t.Fatalf("span ids must be assigned")
	}
	// Attrs round-trip through JSON as {"key","value"} pairs.
	raw, err := json.Marshal(v.Find("canon").Attrs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[0].Key != "nodes" || decoded[1].Key != "exact" {
		t.Fatalf("attrs decoded as %+v", decoded)
	}
}

func TestPhaseDurationAndEndIdempotent(t *testing.T) {
	tr := NewTrace("t", "j")
	s := tr.StartSpanAt(nil, "queue", time.Now().Add(-50*time.Millisecond))
	s.End()
	first := tr.PhaseDuration("queue")
	if first < 50*time.Millisecond {
		t.Fatalf("queue duration %v < backdated 50ms", first)
	}
	s.End() // second End must not restretch the duration
	if got := tr.PhaseDuration("queue"); got != first {
		t.Fatalf("End not idempotent: %v then %v", first, got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	// Parallel conquer workers start and end sibling spans concurrently;
	// run with -race to make this meaningful.
	tr := NewTrace("t", "j")
	root := tr.StartSpan(nil, "job")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.StartSpan(root, "solve.worker", Int("worker", int64(w)))
			s.SetAttrs(Int("conflicts", int64(w*10)))
			s.End()
		}(w)
	}
	wg.Wait()
	root.End()
	v := tr.View()
	if n := len(v.Spans[0].Children); n != 8 {
		t.Fatalf("want 8 worker spans, got %d", n)
	}
}

func TestRecorderEvictionAndLookup(t *testing.T) {
	rec := NewRecorder(3, NewRegistry(""))
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("t%d", i), fmt.Sprintf("job-%d", i))
		tr.StartSpan(nil, "job").End()
		rec.Record(tr)
	}
	if _, ok := rec.Trace("job-0"); ok {
		t.Fatalf("job-0 should have been evicted")
	}
	if _, ok := rec.Trace("job-1"); ok {
		t.Fatalf("job-1 should have been evicted")
	}
	for i := 2; i < 5; i++ {
		if _, ok := rec.Trace(fmt.Sprintf("job-%d", i)); !ok {
			t.Fatalf("job-%d missing from ring", i)
		}
	}
	recent := rec.Recent(0)
	if len(recent) != 3 || recent[0].JobID != "job-4" || recent[2].JobID != "job-2" {
		t.Fatalf("recent order wrong: %+v", recent)
	}
	if got := rec.Recent(2); len(got) != 2 || got[0].JobID != "job-4" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if rec.recorded.Load() != 5 || rec.evicted.Load() != 2 || rec.kept() != 3 {
		t.Fatalf("recorded %d, evicted %d, kept %d", rec.recorded.Load(), rec.evicted.Load(), rec.kept())
	}
}

func TestRecorderHistograms(t *testing.T) {
	rec := NewRecorder(2, NewRegistry(""))
	tr := NewTrace("t", "j")
	s := tr.StartSpanAt(nil, "canon", time.Now().Add(-2*time.Millisecond))
	s.End()
	rec.Record(tr)
	canon, ok := rec.phases.by["canon"]
	if !ok || canon.Snapshot().Count != 1 {
		t.Fatalf("canon histogram = %+v among phases %v", canon, rec.phases.by)
	}
	h := canon.Snapshot()
	if h.SumMS < 2 {
		t.Fatalf("sum %vms < 2ms", h.SumMS)
	}
	if len(h.Buckets) != len(PhaseBuckets)+1 {
		t.Fatalf("bucket count %d != %d", len(h.Buckets), len(PhaseBuckets)+1)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum to %d, count %d", total, h.Count)
	}
	// A 2ms observation belongs in a bucket with bound >= 2ms and the
	// first such bound no larger than 5ms.
	for i, b := range PhaseBuckets {
		if h.Buckets[i].Count > 0 {
			if b < 2*time.Millisecond || b > 5*time.Millisecond {
				t.Fatalf("2ms observation landed in le=%v", b)
			}
			return
		}
	}
	t.Fatalf("observation fell through to +Inf: %+v", h.Buckets)
}

func TestRecorderReplacesReplayedJob(t *testing.T) {
	rec := NewRecorder(4, NewRegistry(""))
	for i := 0; i < 2; i++ {
		tr := NewTrace("t", "job-1")
		tr.StartSpan(nil, "job").End()
		rec.Record(tr)
	}
	if kept := rec.kept(); kept != 1 {
		t.Fatalf("re-recorded job id must replace, kept=%d", kept)
	}
}

// TestRecorderReleasesEvictedTraces: a trace that leaves the ring, by
// eviction or by a replayed job id's newer trace, is no longer reachable
// from the recorder, so the collector frees it.
func TestRecorderReleasesEvictedTraces(t *testing.T) {
	rec := NewRecorder(4, NewRegistry(""))
	record := func(jobID string) {
		tr := NewTrace("t", jobID)
		tr.StartSpan(nil, "job").End()
		rec.Record(tr)
	}
	// watch reports on the returned channel once the collector has freed
	// the job's current trace.
	watch := func(jobID string) <-chan struct{} {
		freed := make(chan struct{})
		v, ok := rec.Trace(jobID)
		if !ok {
			t.Fatalf("%s not in the ring", jobID)
		}
		runtime.SetFinalizer(v, func(*TraceView) { close(freed) })
		return freed
	}
	awaitFreed := func(what string, freed <-chan struct{}) {
		t.Helper()
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-freed:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("%s is still reachable", what)
	}

	for i := 0; i < 4; i++ {
		record(fmt.Sprintf("job-%d", i))
	}
	replaced := watch("job-2")
	record("job-2")
	awaitFreed("the replaced trace of job-2", replaced)
	evicted := watch("job-0")
	record("job-4")
	if _, ok := rec.Trace("job-0"); ok {
		t.Fatal("job-0 should have been evicted")
	}
	awaitFreed("the evicted trace of job-0", evicted)
	var order []string
	for _, v := range rec.Recent(0) {
		order = append(order, v.JobID)
	}
	if want := []string{"job-4", "job-2", "job-3", "job-1"}; !slices.Equal(order, want) {
		t.Fatalf("ring holds %v, want %v", order, want)
	}
}
