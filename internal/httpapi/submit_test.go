package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/service"
	"repro/internal/solverutil"
)

// stubHandler builds the full handler over a service whose solver returns
// at once (reporting each spec it receives on seen, when non-nil), so
// submissions can be driven through ServeHTTP without real solves.
func stubHandler(tb testing.TB, api Config, seen chan<- service.JobSpec) http.Handler {
	tb.Helper()
	svc := service.New(service.Config{Workers: 1, Solve: func(ctx context.Context, g *graph.Graph, spec service.JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		if seen != nil {
			seen <- spec
		}
		return core.Outcome{Instance: g.Name()}
	}})
	tb.Cleanup(svc.Close)
	api.Service = svc
	return New(api)
}

// postJob sends one POST /v1/jobs body straight through the handler.
func postJob(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	return rec
}

// envelopeCode returns the error code of a response body, or "" when the
// body is not an error envelope.
func envelopeCode(rec *httptest.ResponseRecorder) string {
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		return ""
	}
	return env.Error.Code
}

// TestJobRequestJSONGolden pins the JSON encoding of a fully populated
// JobRequest: clients and the benchmark harness build these bodies, so no
// field name, order or omitempty rule may drift. The bytes must also
// decode back, under the strict decoder, to the same request.
func TestJobRequestJSONGolden(t *testing.T) {
	req := JobRequest{
		Bench: "myciel3", Dimacs: "p edge 2 1\ne 1 2\n", Name: "golden",
		N: 3, Edges: [][2]int{{0, 1}, {1, 2}},
		K: 7, SBP: "NU+SC", SBPVariant: "involution", Engine: "galena",
		Portfolio: true, InstanceDependent: true, Timeout: "5s",
		Priority: 2, Deadline: "30s",
		ChronoThreshold: 3, VivifyBudget: 500, DynamicLBD: true,
		Knobs: core.Knobs{
			Knobs:    pbsolver.Knobs{GlueLBD: 4, ReduceInterval: 3000, RestartBase: 64},
			Parallel: 2, CubeDepth: 5, ShareLBD: 6,
		},
	}
	const want = `{"bench":"myciel3","dimacs":"p edge 2 1\ne 1 2\n","name":"golden","n":3,"edges":[[0,1],[1,2]],"k":7,"sbp":"NU+SC","sbp_variant":"involution","engine":"galena","portfolio":true,"instance_dependent":true,"timeout":"5s","priority":2,"deadline":"30s","chrono_threshold":3,"vivify_budget":500,"dynamic_lbd":true,"glue_lbd":4,"reduce_interval":3000,"restart_base":64,"parallel":2,"cube_depth":5,"share_lbd":6}`
	got, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("JobRequest JSON drifted:\n got %s\nwant %s", got, want)
	}
	var back JobRequest
	dec := json.NewDecoder(strings.NewReader(want))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("golden body decodes to %+v, want %+v", back, req)
	}
}

// TestKnobsReachSolverOverHTTP: all six knob JSON names in a POST body
// arrive at the solve function as submitted.
func TestKnobsReachSolverOverHTTP(t *testing.T) {
	seen := make(chan service.JobSpec, 1)
	h := stubHandler(t, Config{}, seen)
	spec := solvedSpec(t, h, seen, `{"n":3,"edges":[[0,1],[1,2]],"k":3,"glue_lbd":4,`+
		`"reduce_interval":3000,"restart_base":64,"parallel":2,"cube_depth":5,"share_lbd":6}`)
	want := core.Knobs{
		Knobs:    pbsolver.Knobs{GlueLBD: 4, ReduceInterval: 3000, RestartBase: 64},
		Parallel: 2, CubeDepth: 5, ShareLBD: 6,
	}
	if spec.Knobs != want {
		t.Fatalf("solver saw knobs %+v, posted %+v", spec.Knobs, want)
	}
}

// TestDeletedKnobFieldsAcceptedAndIgnored: a body that still carries the
// deleted chrono_threshold, vivify_budget and dynamic_lbd fields reaches
// the solver with the same spec as one without them, while a negative
// chrono_threshold or vivify_budget is still a 400 invalid_spec naming
// the field, next to the body's other invalid fields.
func TestDeletedKnobFieldsAcceptedAndIgnored(t *testing.T) {
	seen := make(chan service.JobSpec, 1)
	h := stubHandler(t, Config{}, seen)
	const knobs = `"glue_lbd":4,"reduce_interval":3000,"restart_base":64`
	want := solvedSpec(t, h, seen, `{"n":3,"edges":[[0,1],[1,2]],"k":3,`+knobs+`}`)
	// A distinct K keeps the second submission from joining the first.
	got := solvedSpec(t, h, seen, `{"n":3,"edges":[[0,1],[1,2]],"k":4,`+
		`"chrono_threshold":3,"vivify_budget":500,"dynamic_lbd":true,`+knobs+`}`)
	got.K = want.K
	if got != want {
		t.Fatalf("solver saw %+v, want %+v", got, want)
	}
	for body, fields := range map[string][]string{
		`{"n":3,"edges":[[0,1]],"chrono_threshold":-1}`:                    {"chrono_threshold"},
		`{"n":3,"edges":[[0,1]],"vivify_budget":-5,"priority":99}`:         {"vivify_budget", "priority"},
		`{"n":3,"edges":[[0,1]],"chrono_threshold":-2,"vivify_budget":-2}`: {"chrono_threshold", "vivify_budget"},
	} {
		rec := postJob(h, body)
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
			t.Fatalf("%s: status %d body %s, want 400 %s", body, rec.Code, rec.Body, CodeInvalidSpec)
		}
		var named []string
		for _, f := range env.Error.Fields {
			named = append(named, f.Field)
		}
		if !slices.Equal(named, fields) {
			t.Errorf("%s: fields %v, want %v", body, named, fields)
		}
	}
}

// solvedSpec posts body, which must be accepted, and returns the spec the
// stub solver then receives on seen.
func solvedSpec(t *testing.T, h http.Handler, seen <-chan service.JobSpec, body string) service.JobSpec {
	t.Helper()
	rec := postJob(h, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	select {
	case spec := <-seen:
		return spec
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: solver never ran", body)
	}
	return service.JobSpec{}
}

// TestRemovedSBPVariantNamesAliasFull: every name a request's sbp_variant
// accepts — the names of the removed involution, race and canonset
// variants included — reaches the solver exactly as a request naming no
// variant, that is under the one construction, full; an unknown name is
// still a 400 invalid_spec.
func TestRemovedSBPVariantNamesAliasFull(t *testing.T) {
	seen := make(chan service.JobSpec, 1)
	h := stubHandler(t, Config{}, seen)
	want := solvedSpec(t, h, seen, `{"n":3,"edges":[[0,1],[1,2]],"k":3,"instance_dependent":true}`)
	for i, name := range []string{"", "full", "involution", "inv", "race", "canonset", "canon"} {
		// Distinct K values keep the submissions from sharing a solve.
		got := solvedSpec(t, h, seen, fmt.Sprintf(`{"n":3,"edges":[[0,1],[1,2]],"k":%d,"instance_dependent":true,"sbp_variant":%q}`, 4+i, name))
		got.K = want.K
		if got != want {
			t.Errorf("%q: solver saw %+v, want %+v", name, got, want)
		}
	}
	rec := postJob(h, `{"n":3,"edges":[[0,1],[1,2]],"sbp_variant":"bogus"}`)
	if rec.Code != http.StatusBadRequest || envelopeCode(rec) != CodeInvalidSpec {
		t.Fatalf("unknown variant: status %d body %s, want 400 %s", rec.Code, rec.Body, CodeInvalidSpec)
	}
}

// TestHostileVertexCounts: a negative vertex count is a 400 envelope on
// both inline graph sources rather than a makeslice panic that drops the
// connection, and an oversized declared count is refused with 413 before
// anything is allocated per vertex.
func TestHostileVertexCounts(t *testing.T) {
	h := stubHandler(t, Config{}, nil)
	for _, body := range []string{`{"n":-1,"edges":[[0,1]]}`, `{"dimacs":"p edge -5 0\n"}`} {
		rec := postJob(h, body)
		if rec.Code != http.StatusBadRequest || envelopeCode(rec) != CodeInvalidSpec {
			t.Errorf("%s: status %d body %s, want 400 %s", body, rec.Code, rec.Body, CodeInvalidSpec)
		}
	}
	for _, body := range []string{`{"n":20000000}`, `{"dimacs":"p edge 20000000 0\n"}`} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := postJob(h, body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge || envelopeCode(rec) != CodeGraphTooLarge {
			t.Errorf("%s: status %d body %s, want 413 %s", body, rec.Code, rec.Body, CodeGraphTooLarge)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Errorf("%s: refusing it allocated %d MB", body, grew>>20)
		}
	}
}

// TestHostileHeaders: the header values a client chooses are bounded. An
// X-Tenant over 64 bytes or holding a control character is refused with
// 400 invalid_spec naming the header, before it can become a tenant (a
// /v1/stats entry and three /metrics series); an X-Request-ID over 128
// bytes or holding a control character is replaced by a generated id
// instead of being echoed, logged and kept as the trace id. Values at the
// limits pass unchanged.
func TestHostileHeaders(t *testing.T) {
	h := stubHandler(t, Config{}, nil)
	post := func(header, value string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"n":3,"edges":[[0,1],[1,2]],"k":3}`))
		req.Header.Set(header, value)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	huge := strings.Repeat("x", 512<<10)
	for _, tenant := range []string{huge, strings.Repeat("t", 65), "ten\tant", "ten\x01ant", "ten\x7fant"} {
		rec := post("X-Tenant", tenant)
		if rec.Code != http.StatusBadRequest || envelopeCode(rec) != CodeInvalidSpec || !strings.Contains(rec.Body.String(), "X-Tenant") {
			t.Errorf("X-Tenant %.20q (%d bytes): status %d body %.200s, want 400 %s naming the header",
				tenant, len(tenant), rec.Code, rec.Body, CodeInvalidSpec)
		}
	}
	edgeTenant := strings.Repeat("t", 64)
	if rec := post("X-Tenant", edgeTenant); rec.Code != http.StatusAccepted {
		t.Errorf("64-byte X-Tenant: status %d body %s, want 202", rec.Code, rec.Body)
	}
	for _, id := range []string{huge, strings.Repeat("r", 129), "req\tid", "req\x01id"} {
		rec := post("X-Request-ID", id)
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("X-Request-ID of %d bytes: status %d body %.200s, want 202", len(id), rec.Code, rec.Body)
		}
		got := rec.Header().Get("X-Request-ID")
		if got == "" || len(got) > 128 || strings.Contains(id, got) || body["request_id"] != got {
			t.Errorf("X-Request-ID %.20q (%d bytes): echoed %.40q, body %.40q; want a generated id",
				id, len(id), got, body["request_id"])
		}
	}
	edgeID := strings.Repeat("r", 128)
	if got := post("X-Request-ID", edgeID).Header().Get("X-Request-ID"); got != edgeID {
		t.Errorf("128-byte X-Request-ID echoed as %.40q, want it unchanged", got)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Tenants map[string]json.RawMessage `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for name := range st.Tenants {
		if name != "default" && name != edgeTenant {
			t.Errorf("refused X-Tenant became tenant %.20q (%d bytes)", name, len(name))
		}
	}
}

// FuzzSubmit feeds arbitrary bodies to POST /v1/jobs. Whatever arrives,
// the handler must not panic, and every non-2xx answer must be an error
// envelope with a code.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"myciel3","k":5}`,
		`{"n":3,"edges":[[0,1],[1,2]],"k":3,"parallel":2,"cube_depth":4,"share_lbd":-1}`,
		`{"dimacs":"c x\np edge 3 2\ne 1 2\ne 2 3\n","k":3,"engine":"bnb","portfolio":true}`,
		`{"n":3,"edges":[[0,1]],"chrono_threshold":1,"vivify_budget":9,"dynamic_lbd":true,"glue_lbd":2,"reduce_interval":5,"restart_base":1}`,
		`{"n":-1,"edges":[[0,1]]}`,
		`{"dimacs":"p edge -5 0\n"}`,
		`{"n":20000000}`,
		`{"dimacs":"p edge 20000000 0\n"}`,
		`{"n":2,"edges":[[0,2]]}`,
		`{"n":4,"edges":[[0,1]],"k":-3,"priority":99,"timeout":"x"}`,
		`{"n":1,"k":1048576}`,
		`{"bench":"nope"}`,
		`{"bogus":1}`,
		`{not json`,
		``,
	} {
		f.Add(seed)
	}
	h := stubHandler(f, Config{MaxVertices: 64, MaxEdges: 256}, nil)
	f.Fuzz(func(t *testing.T, body string) {
		rec := postJob(h, body)
		if rec.Code/100 != 2 && envelopeCode(rec) == "" {
			t.Fatalf("status %d with a body that is not an error envelope: %q", rec.Code, rec.Body)
		}
	})
}
