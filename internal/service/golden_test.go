package service

import (
	"crypto/sha256"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/pbsolver"
)

// TestJobSpecAndCacheKeyGolden pins two persisted formats byte for byte:
// the JobSpec JSON (the journal and GET /v1/jobs/{id} serve it) and the
// cache key (the disk store is keyed by it). Reordering or retagging a
// knob, or letting one into the key, fails here.
func TestJobSpecAndCacheKeyGolden(t *testing.T) {
	spec := JobSpec{
		K: 7, SBP: encode.SBPNUSC, Engine: pbsolver.EngineGalena,
		Portfolio: true, InstanceDependent: true,
		Timeout: 5 * time.Second, Priority: 2, Deadline: 30 * time.Second,
		Knobs: core.Knobs{
			Knobs: pbsolver.Knobs{
				ChronoThreshold: 3, VivifyBudget: 500, DynamicLBD: true,
				GlueLBD: 4, ReduceInterval: 3000, RestartBase: 64,
			},
			Parallel: 2, CubeDepth: 5, ShareLBD: 6,
		},
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"full", spec, `{"k":7,"sbp":5,"engine":1,"portfolio":true,"instance_dependent":true,"timeout":5000000000,"priority":2,"deadline":30000000000,"chrono_threshold":3,"vivify_budget":500,"dynamic_lbd":true,"glue_lbd":4,"reduce_interval":3000,"restart_base":64,"parallel":2,"cube_depth":5,"share_lbd":6}`},
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
	canon := &autom.Canonical{Hash: sha256.Sum256([]byte("golden"))}
	const wantKey = "v2 k=7 sbp=5 eng=1 pf=true id=true dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d"
	if got := cacheKey(spec, canon); got != wantKey {
		t.Errorf("cacheKey drifted:\n got %q\nwant %q", got, wantKey)
	}
}
