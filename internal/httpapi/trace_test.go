package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// fetchTraceView fetches GET /v1/jobs/{id}/trace for a job known to have
// finished; the daemon answers once the flight recorder holds the trace.
func fetchTraceView(t *testing.T, srv *httptest.Server, id string) obs.TraceView {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s: trace status %d, want 200", id, resp.StatusCode)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	return tv
}

// TestTraceEndpointShape: a completed job's trace is a single-root span
// tree whose root is the job, whose children are the lifecycle phases in
// order, and whose trace id is the X-Request-ID the submission carried. A
// relabelled duplicate submitted after the job finished is answered from
// the cache, and its trace is as well formed, with no solve phase.
func TestTraceEndpointShape(t *testing.T) {
	srv, _ := startDaemon(t, "")

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs",
		strings.NewReader(`{"bench":"myciel3","k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	id := out["id"]
	waitDone(t, srv, id)

	tv := fetchTraceView(t, srv, id)
	if tv.TraceID != "trace-test-42" {
		t.Fatalf("trace id %q, want the submitted X-Request-ID", tv.TraceID)
	}
	checkSpanTree(t, tv, id, "admission", "queue", "canon", "solve", "persist")
	// encode and sbp run inside the solver, so they must hang off the
	// solve span, not the root.
	solve := tv.Find("solve")
	foundEncode := false
	for _, c := range solve.Children {
		if c.Name == "encode" {
			foundEncode = true
		}
	}
	if !foundEncode {
		t.Fatalf("encode span is not a child of solve: %+v", solve)
	}

	dup := submitJob(t, srv, relabelledMyciel3(t))
	waitDone(t, srv, dup)
	hit := fetchTraceView(t, srv, dup)
	checkSpanTree(t, hit, dup, "admission", "queue", "canon")
	if s := hit.Find("solve"); s != nil {
		t.Fatalf("the duplicate was solved again: %+v", s)
	}
}

// checkSpanTree checks what every completed trace satisfies: it names the
// job and a trace id; it has one root, named job, holding the given
// phases; its span ids are unique; every child interval nests inside its
// parent (1 ms slack for view rounding); and the root's children account
// for the root's duration within max(50 ms, 25%).
func checkSpanTree(t *testing.T, tv obs.TraceView, id string, phases ...string) {
	t.Helper()
	if tv.JobID != id || tv.TraceID == "" {
		t.Fatalf("trace names job %q with trace id %q, want job %q and an id", tv.JobID, tv.TraceID, id)
	}
	if len(tv.Spans) != 1 || tv.Spans[0].Name != "job" {
		t.Fatalf("want exactly one root span named job, got %+v", tv.Spans)
	}
	root := tv.Spans[0]
	for _, phase := range phases {
		if tv.Find(phase) == nil {
			t.Fatalf("trace missing %q span:\n%+v", phase, root)
		}
	}
	seen := map[uint64]bool{root.ID: true}
	var checkNesting func(parent, s *obs.SpanView)
	checkNesting = func(parent, s *obs.SpanView) {
		if seen[s.ID] {
			t.Fatalf("span %s reuses id %d", s.Name, s.ID)
		}
		seen[s.ID] = true
		if s.StartOffsetMS < parent.StartOffsetMS-1 ||
			s.StartOffsetMS+s.DurationMS > parent.StartOffsetMS+parent.DurationMS+1 {
			t.Fatalf("span %s [%.2f,%.2f] escapes parent %s [%.2f,%.2f]",
				s.Name, s.StartOffsetMS, s.StartOffsetMS+s.DurationMS,
				parent.Name, parent.StartOffsetMS, parent.StartOffsetMS+parent.DurationMS)
		}
		for _, c := range s.Children {
			checkNesting(s, c)
		}
	}
	var sum float64
	for _, c := range root.Children {
		checkNesting(root, c)
		sum += c.DurationMS
	}
	if slack := math.Max(50, 0.25*root.DurationMS); math.Abs(root.DurationMS-sum) > slack {
		t.Fatalf("root's children sum to %.2f ms, but the job ran %.2f ms (slack %.0f ms)", sum, root.DurationMS, slack)
	}
}

// TestTraceEndpointUnknownJob: both flavors of "no trace" answer with the
// unified 404 envelope — an unknown job id, and a known job whose trace
// is not (yet) in the recorder.
func TestTraceEndpointUnknownJob(t *testing.T) {
	srv, _ := startDaemon(t, "")
	resp, err := http.Get(srv.URL + "/v1/jobs/no-such-job/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("404 body is not the error envelope: %v", err)
	}
	if env.Error.Code != CodeJobNotFound {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeJobNotFound)
	}
}

// TestTraceRecentAndEviction: the flight recorder keeps only the newest
// -trace.keep traces; /v1/trace/recent lists them newest first, and a
// job evicted from the ring answers 404 even though the job itself is
// still known.
func TestTraceRecentAndEviction(t *testing.T) {
	svc := service.New(service.Config{
		Workers:        2,
		DefaultTimeout: 30 * time.Second,
		TraceKeep:      2,
	})
	srv := httptest.NewServer(New(Config{Service: svc}))
	t.Cleanup(func() {
		srv.Close()
		svc.CancelAll()
		svc.Close()
	})

	// Three distinct graphs solved in sequence: the first trace must be
	// evicted when the third lands.
	ids := make([]string, 3)
	for i, bench := range []string{"myciel3", "path", "triangle"} {
		body := map[string]string{
			"myciel3":  `{"bench":"myciel3","k":6}`,
			"path":     `{"name":"p3","n":3,"edges":[[0,1],[1,2]],"k":3}`,
			"triangle": `{"name":"t3","n":3,"edges":[[0,1],[1,2],[0,2]],"k":3}`,
		}[bench]
		ids[i] = submitJob(t, srv, body)
		waitDone(t, srv, ids[i])
		fetchTraceView(t, srv, ids[i])
	}

	resp, err := http.Get(srv.URL + "/v1/trace/recent?n=10")
	if err != nil {
		t.Fatal(err)
	}
	var recent struct {
		Traces []obs.TraceView `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&recent)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recent.Traces) != 2 {
		t.Fatalf("recent: got %d traces, want the 2 the ring keeps", len(recent.Traces))
	}
	if recent.Traces[0].JobID != ids[2] || recent.Traces[1].JobID != ids[1] {
		t.Fatalf("recent order: got %s,%s want newest-first %s,%s",
			recent.Traces[0].JobID, recent.Traces[1].JobID, ids[2], ids[1])
	}

	// The evicted job is still known (its snapshot answers 200) but its
	// trace is gone: 404 with the envelope.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + ids[0] + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace: status %d, want 404", resp.StatusCode)
	}

	// Malformed n is an enveloped 400.
	resp, err = http.Get(srv.URL + "/v1/trace/recent?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", resp.StatusCode)
	}
}
