package service

import (
	"context"
	"encoding/json"
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
	"repro/internal/store"
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
	tuned := submitAndWait(JobSpec{K: 6, Knobs: core.Knobs{Knobs: pbsolver.Knobs{GlueLBD: 5, ReduceInterval: 500, RestartBase: 7}}})
	if !tuned.CacheHit {
		t.Fatal("job differing only in search knobs missed the cache")
	}
	if tuned.Chi != first.Chi {
		t.Fatalf("cached result chi=%d, original chi=%d", tuned.Chi, first.Chi)
	}
	if runs != 1 {
		t.Fatalf("solver ran %d times, want 1 (knobs are not part of the key)", runs)
	}

	other := submitAndWait(JobSpec{K: 7, Knobs: core.Knobs{Knobs: pbsolver.Knobs{GlueLBD: 5}}})
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
		K: 8, Knobs: core.Knobs{Knobs: pbsolver.Knobs{GlueLBD: 1, ReduceInterval: 4, RestartBase: 1}},
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

// deletedKnobs are the keys of the chronological backtracking,
// vivification and dynamic LBD knobs as an earlier build journaled them.
const deletedKnobs = `"chrono_threshold":3,"vivify_budget":500,"dynamic_lbd":true`

// TestJournalReplaysDeletedKnobs: a journal entry written while the
// chronological backtracking, vivification and dynamic LBD knobs still
// ran holds their keys; after a restart it replays at the defaults and
// proves the brute-force χ.
func TestJournalReplaysDeletedKnobs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random("legacy-knobs", 8, 16, 4)
	chi := testutil.BruteForceChromatic(g)
	e := JournalEntry{ID: "job-1", Name: g.Name(), N: g.N(), Edges: g.Edges(),
		Spec: JobSpec{K: 8}, Submitted: time.Now()}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	raw = []byte(strings.Replace(string(raw), `"timeout":0`, `"timeout":0,`+deletedKnobs, 1))
	if !strings.Contains(string(raw), deletedKnobs) {
		t.Fatalf("journal entry %s does not hold the deleted knobs", raw)
	}
	if err := st.Put(e.ID, raw); err != nil {
		t.Fatal(err)
	}
	st.Close() // the crash: the entry was never marked done

	jr, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, DefaultTimeout: 30 * time.Second, Journal: jr})
	defer svc.Close()
	info, err := svc.Wait(context.Background(), e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || !info.Result.Solved || info.Result.Chi != chi {
		t.Fatalf("replayed job: %+v, want solved with chi %d", info.Result, chi)
	}
	if err := testutil.CheckColoring(g, info.Result.Coloring, 8); err != nil {
		t.Fatal(err)
	}
}

// TestPersistedKnobCountersStillHit: a cache record persisted while the
// deleted knobs ran may hold their counters ("chrono_backtracks",
// "vivified_lits", "lbd_updates"); a restarted service still serves it
// as a hit, with no solver run.
func TestPersistedKnobCountersStillHit(t *testing.T) {
	dir := t.TempDir()
	g := graph.Random("legacy-record", 14, 40, 9)
	backend, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Backend: backend, Solve: countingSolve(&runs, 0)})
	id, err := svc.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	records := map[string][]byte{}
	st.Range(func(key string, val []byte) bool {
		records[key] = append([]byte(nil), val...)
		return true
	})
	if len(records) != 1 {
		t.Fatalf("store holds %d records, want 1", len(records))
	}
	for key, val := range records {
		old := strings.TrimSuffix(string(val), "}") + `,"chrono_backtracks":7,"vivified_lits":11,"lbd_updates":13}`
		if err := st.Put(key, []byte(old)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	backend2, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Workers: 1, Backend: backend2, Solve: countingSolve(&runs, 0)})
	defer svc2.Close()
	id, err = svc2.Submit(g, JobSpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc2.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if r := info.Result; r == nil || !r.CacheHit || r.Chi != first.Result.Chi || !g.IsProperColoring(r.Coloring) {
		t.Fatalf("record with the deleted counters served %+v, want a hit with chi %d", r, first.Result.Chi)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("solver ran %d times, want 1 (the first life only)", n)
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
	st := svc.Metrics().Snapshot()
	if st.Int("canceled") != 1 || st.Int("completed") != 1 {
		t.Fatalf("%d canceled and %d completed, want 1 and 1", st.Int("canceled"), st.Int("completed"))
	}
}
