package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
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

// TestSBPVariantsShareCacheEntries: an "sbp_variant" key in a stored spec
// (journals hold 1, 2 or 3) decodes to the same spec as no key at all, so
// the variant never splits the cache — four submissions of one graph
// share a single solver run.
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
	var first *Result
	for i, variant := range []string{"", `,"sbp_variant":1`, `,"sbp_variant":2`, `,"sbp_variant":3`} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(`{"k":6,"instance_dependent":true`+variant+`}`), &spec); err != nil {
			t.Fatal(err)
		}
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
		if i == 0 {
			first = info.Result
			continue
		}
		if !info.Result.CacheHit {
			t.Fatalf("spec with %q missed the cache; the SBP variant must not be part of the key", variant)
		}
		if info.Result.Chi != first.Chi {
			t.Fatalf("spec with %q: cached chi=%d, original chi=%d", variant, info.Result.Chi, first.Chi)
		}
	}
	if runs != 1 {
		t.Fatalf("solver ran %d times across 4 variant submissions, want 1", runs)
	}
}

// TestSBPVariantStatsAggregation: Stats.SBPVariants folds each solver
// run's emitted-predicate counters into its one row, "full"; outcomes
// whose predicate layer never ran contribute nothing.
func TestSBPVariantStatsAggregation(t *testing.T) {
	svc := New(Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		out.Result.Status = pbsolver.StatusOptimal
		if spec.InstanceDependent {
			out.Sym = &core.SymmetryStats{PredicatePerms: 3, AddedCNF: 40}
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

	if rows := svc.Metrics().Snapshot().Table("sbp_variants"); len(rows) != 0 {
		t.Fatalf("stats rows before any predicate layer ran = %v, want none", rows)
	}
	// Distinct K values force distinct cache entries, so each submission
	// is a real solver run.
	submit(JobSpec{K: 5, InstanceDependent: true})
	submit(JobSpec{K: 6, InstanceDependent: true})
	submit(JobSpec{K: 7, InstanceDependent: true})
	submit(JobSpec{K: 8}) // no predicate layer: must not count in the full row

	rows := svc.Metrics().Snapshot().Table("sbp_variants")
	if got := rows["full"]; got["runs"] != 3 || got["perms"] != 9 || got["clauses"] != 120 {
		t.Fatalf("full row = %+v, want runs=3 perms=9 clauses=120", got)
	}
	if len(rows) != 1 {
		t.Fatalf("stats rows = %v, want only full", rows)
	}
}

// TestSBPVariantRaceEndToEnd runs the real solve flow for a request whose
// variant is named "race", an alias of full: the job must return the
// brute-force optimum and report full in its result and in Stats.
func TestSBPVariantRaceEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	defer svc.Close()
	g := graph.Random("sbprace", 8, 16, 2)
	chi := testutil.BruteForceChromatic(g)
	if err := ParseSBPVariant("race"); err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(g, JobSpec{K: 8, InstanceDependent: true})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	checkFullResult(t, g, chi, 8, info)
	if row := svc.Metrics().Snapshot().Table("sbp_variants")["full"]; row["runs"] != 1 {
		t.Fatalf("full stats row = %+v, want one run", row)
	}
}

// TestJournalReplaysRemovedSBPVariantsAsFull: journal entries whose spec
// holds an "sbp_variant" of 1, 2 or 3 (the removed involution, canonset
// and race variants, as older builds wrote them) replay under the one
// construction and reach the brute-force optimum.
func TestJournalReplaysRemovedSBPVariantsAsFull(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random("legacy", 8, 16, 2)
	chi := testutil.BruteForceChromatic(g)
	// Distinct K values keep the jobs from sharing a cache entry.
	legacy := map[string]int{"job-1": 7, "job-2": 8, "job-3": 9}
	for id, k := range legacy {
		e := JournalEntry{ID: id, Name: g.Name(), N: g.N(), Edges: g.Edges(),
			Spec: JobSpec{K: k, InstanceDependent: true}, Submitted: time.Now()}
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		variant := fmt.Sprintf(`"instance_dependent":true,"sbp_variant":%s`, strings.TrimPrefix(id, "job-"))
		raw = []byte(strings.Replace(string(raw), `"instance_dependent":true`, variant, 1))
		if err := st.Put(id, raw); err != nil {
			t.Fatal(err)
		}
	}
	st.Close() // the crash: entries never marked done

	jr, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, DefaultTimeout: 30 * time.Second, Journal: jr})
	defer svc.Close()
	for id, k := range legacy {
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		checkFullResult(t, g, chi, k, info)
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
	if got := info.Result.SBPVariant; got != "full" {
		t.Fatalf("job %s: sbp_variant = %q, want full", info.ID, got)
	}
}
