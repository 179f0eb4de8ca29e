package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
	"repro/internal/store"
)

// TestJobSpecAndCacheKeyGolden pins two persisted formats byte for byte:
// the JobSpec JSON (the journal and GET /v1/jobs/{id} serve it) and the
// cache key (the disk store is keyed by it). Reordering or retagging a
// knob, or letting one into the key, fails here. A spec journaled before
// the chronological backtracking, vivification and dynamic LBD knobs
// were deleted still decodes, to the same spec.
func TestJobSpecAndCacheKeyGolden(t *testing.T) {
	spec := JobSpec{
		K: 7, SBP: encode.SBPNUSC, Engine: pbsolver.EngineGalena,
		Portfolio: true, InstanceDependent: true,
		Timeout: 5 * time.Second, Priority: 2, Deadline: 30 * time.Second,
		Knobs: core.Knobs{
			Knobs:    pbsolver.Knobs{GlueLBD: 4, ReduceInterval: 3000, RestartBase: 64},
			Parallel: 2, CubeDepth: 5, ShareLBD: 6,
		},
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"full", spec, `{"k":7,"sbp":5,"engine":1,"portfolio":true,"instance_dependent":true,"timeout":5000000000,"priority":2,"deadline":30000000000,"glue_lbd":4,"reduce_interval":3000,"restart_base":64,"parallel":2,"cube_depth":5,"share_lbd":6}`},
		{"zero", JobSpec{}, `{"k":0,"sbp":0,"engine":0,"portfolio":false,"instance_dependent":false,"timeout":0}`},
	} {
		got, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s JobSpec JSON drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		var back JobSpec
		if err := json.Unmarshal(got, &back); err != nil || back != tc.spec {
			t.Errorf("%s JobSpec JSON does not round-trip: %+v, %v", tc.name, back, err)
		}
	}
	const earlierFull = `{"k":7,"sbp":5,"engine":1,"portfolio":true,"instance_dependent":true,"timeout":5000000000,"priority":2,"deadline":30000000000,"chrono_threshold":3,"vivify_budget":500,"dynamic_lbd":true,"glue_lbd":4,"reduce_interval":3000,"restart_base":64,"parallel":2,"cube_depth":5,"share_lbd":6}`
	var earlier JobSpec
	if err := json.Unmarshal([]byte(earlierFull), &earlier); err != nil || earlier != spec {
		t.Errorf("earlier full JobSpec JSON decodes to %+v, %v; want %+v", earlier, err, spec)
	}
	canon := &autom.Canonical{Hash: sha256.Sum256([]byte("golden"))}
	const wantKey = "v2 k=7 sbp=5 eng=1 pf=true id=true dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d"
	if got := cacheKey(spec, canon); got != wantKey {
		t.Errorf("cacheKey drifted:\n got %q\nwant %q", got, wantKey)
	}
}

// TestJournalEntryGolden pins the job journal's record byte for byte: the
// edge list, the spec, the submission time and the absolute deadline. A
// restarted daemon replays what an older build journaled, so the test
// also replays, through a disk journal, a record in the exact bytes a
// build whose edge list was a plain [][2]int wrote.
func TestJournalEntryGolden(t *testing.T) {
	submitted := time.Date(2004, 3, 24, 9, 30, 15, 250000000, time.UTC)
	entry := JournalEntry{
		ID: "job-42", Tenant: "acme", Name: "golden", N: 5,
		Edges: graph.EdgeList{{0, 1}, {0, 4}, {1, 2}, {1, 4}, {2, 3}, {3, 4}},
		Spec: JobSpec{K: 4, SBP: encode.SBPNUSC, Engine: pbsolver.EngineGalena,
			Timeout: 5 * time.Second, Priority: 1, Deadline: time.Hour},
		Submitted: submitted, Deadline: submitted.Add(time.Hour),
	}
	for _, tc := range []struct {
		name  string
		entry JournalEntry
		want  string
	}{
		{"full", entry, `{"id":"job-42","tenant":"acme","name":"golden","n":5,"edges":[[0,1],[0,4],[1,2],[1,4],[2,3],[3,4]],"spec":{"k":4,"sbp":5,"engine":1,"portfolio":false,"instance_dependent":false,"timeout":5000000000,"priority":1,"deadline":3600000000000},"submitted":"2004-03-24T09:30:15.25Z","deadline":"2004-03-24T10:30:15.25Z"}`},
		{"edgeless", JournalEntry{ID: "job-1", N: 3}, `{"id":"job-1","n":3,"spec":{"k":0,"sbp":0,"engine":0,"portfolio":false,"instance_dependent":false,"timeout":0},"submitted":"0001-01-01T00:00:00Z","deadline":"0001-01-01T00:00:00Z"}`},
	} {
		got, err := json.Marshal(tc.entry)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s JournalEntry JSON drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		var back JournalEntry
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		again, _ := json.Marshal(back)
		if string(again) != tc.want || !slices.Equal(back.Edges, tc.entry.Edges) {
			t.Errorf("%s JournalEntry JSON does not round-trip: %s", tc.name, again)
		}
	}

	// The live form of the entry above (no deadline), as the earlier
	// build's encoder wrote it, replayed after a restart.
	const earlier = `{"id":"job-42","tenant":"acme","name":"golden","n":5,"edges":[[0,1],[0,4],[1,2],[1,4],[2,3],[3,4]],"spec":{"k":4,"sbp":5,"engine":1,"portfolio":false,"instance_dependent":false,"timeout":5000000000,"priority":1},"submitted":"2004-03-24T09:30:15.25Z","deadline":"0001-01-01T00:00:00Z"}`
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("job-42", []byte(earlier)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	jr, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	solved := make(chan [][2]int, 1)
	greedy := reportingSolve(0, nil)
	svc := New(Config{Workers: 1, Journal: jr, Solve: func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		solved <- g.Edges()
		return greedy(ctx, g, spec, sym, progress)
	}})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := svc.Wait(ctx, "job-42")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone.String() || info.Tenant != "acme" {
		t.Fatalf("replayed job-42: state %q tenant %q, want done for acme", info.State, info.Tenant)
	}
	if got := <-solved; !slices.Equal(got, entry.Edges) {
		t.Fatalf("replayed job-42 solved edges %v, want %v", got, entry.Edges)
	}
}
