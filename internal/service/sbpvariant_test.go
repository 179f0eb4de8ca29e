package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/solverutil"
	"repro/internal/store"
	"repro/internal/testutil"
)

// TestSBPVariantsShareCacheEntries: both SBP variants are sound partial
// breaks of the same symmetry group, so the variant knob must be excluded
// from the cache key — two submissions of one graph differing only in
// SBPVariant share a single solver run.
func TestSBPVariantsShareCacheEntries(t *testing.T) {
	runs := 0
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs++
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		return out
	}})
	defer svc.Close()

	g := graph.Random("sbpshared", 12, 30, 9)
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

	first := submitAndWait(JobSpec{K: 6, InstanceDependent: true, SBPVariant: sbp.VariantFull})
	res := submitAndWait(JobSpec{K: 6, InstanceDependent: true, SBPVariant: sbp.VariantCanonSet})
	if !res.CacheHit {
		t.Fatal("canonset missed the cache; the SBP variant must not be part of the key")
	}
	if res.Chi != first.Chi {
		t.Fatalf("canonset: cached chi=%d, original chi=%d", res.Chi, first.Chi)
	}
	if runs != 1 {
		t.Fatalf("solver ran %d times across 2 variant submissions, want 1", runs)
	}
}

// TestSBPVariantStatsAggregation: Stats.SBPVariants folds each solver
// run's emitted-predicate counters into its variant's row; outcomes whose
// predicate layer never ran contribute nothing.
func TestSBPVariantStatsAggregation(t *testing.T) {
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		if spec.InstanceDependent {
			out.Sym = &core.SymmetryStats{
				Variant:        spec.SBPVariant,
				PredicatePerms: 3,
				AddedCNF:       40,
			}
		}
		return out
	}})
	defer svc.Close()

	g := graph.Random("sbpstats", 12, 30, 11)
	submit := func(spec JobSpec) {
		t.Helper()
		id, err := svc.Submit(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	// Distinct K values force distinct cache entries, so each submission
	// is a real solver run.
	submit(JobSpec{K: 5, InstanceDependent: true, SBPVariant: sbp.VariantFull})
	submit(JobSpec{K: 6, InstanceDependent: true, SBPVariant: sbp.VariantFull})
	submit(JobSpec{K: 7, InstanceDependent: true, SBPVariant: sbp.VariantCanonSet})
	submit(JobSpec{K: 8}) // no predicate layer: must not count in the full row

	st := svc.Stats()
	if got := st.SBPVariants["full"]; got.Runs != 2 || got.Perms != 6 || got.Clauses != 80 {
		t.Fatalf("full row = %+v, want runs=2 perms=6 clauses=80", got)
	}
	if got := st.SBPVariants["canonset"]; got.Runs != 1 || got.Perms != 3 || got.Clauses != 40 {
		t.Fatalf("canonset row = %+v, want runs=1 perms=3 clauses=40", got)
	}
	if len(st.SBPVariants) != 2 {
		t.Fatalf("stats rows = %v, want only full and canonset", st.SBPVariants)
	}
}

// TestSBPVariantRaceEndToEnd runs the real solve flow with the variant
// named "race", now an alias of full: the job must return the brute-force
// optimum and report full in its result and in Stats.
func TestSBPVariantRaceEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	defer svc.Close()
	g := graph.Random("sbprace", 8, 16, 2)
	chi := testutil.BruteForceChromatic(g)
	variant, err := ParseSBPVariant("race")
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(g, JobSpec{K: 8, InstanceDependent: true, SBPVariant: variant})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	checkFullResult(t, g, chi, 8, info)
	if row := svc.Stats().SBPVariants["full"]; row.Runs != 1 {
		t.Fatalf("full stats row = %+v, want one run", row)
	}
}

// TestJournalReplaysRemovedSBPVariantsAsFull: journal entries that hold
// the removed involution (1) and race (3) variants, as older builds wrote
// them, replay as full and reach the brute-force optimum.
func TestJournalReplaysRemovedSBPVariantsAsFull(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random("legacy", 8, 16, 2)
	chi := testutil.BruteForceChromatic(g)
	legacy := map[string]JobSpec{
		// Distinct K values keep the two jobs from sharing a cache entry.
		"job-1": {K: 7, InstanceDependent: true, SBPVariant: 1},
		"job-2": {K: 8, InstanceDependent: true, SBPVariant: 3},
	}
	for id, spec := range legacy {
		e := JournalEntry{ID: id, Name: g.Name(), N: g.N(), Edges: g.Edges(), Spec: spec, Submitted: time.Now()}
		if err := jr.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close() // the crash: entries never marked done

	jr2, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, DefaultTimeout: 30 * time.Second, Journal: jr2})
	defer svc.Close()
	for id, spec := range legacy {
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		checkFullResult(t, g, chi, spec.K, info)
	}
}

// checkFullResult asserts a finished job solved g to chi with a proper
// witness and reports the full SBP variant.
func checkFullResult(t *testing.T, g *graph.Graph, chi, k int, info JobInfo) {
	t.Helper()
	if info.Result == nil || !info.Result.Solved {
		t.Fatalf("job %s did not solve: %+v", info.ID, info)
	}
	if info.Result.Chi != chi {
		t.Fatalf("job %s: chi = %d, brute force says %d", info.ID, info.Result.Chi, chi)
	}
	if err := testutil.CheckColoring(g, info.Result.Coloring, k); err != nil {
		t.Fatal(err)
	}
	if got := info.Result.SBPVariant; got != sbp.VariantFull.String() {
		t.Fatalf("job %s: sbp_variant = %q, want full", info.ID, got)
	}
}
