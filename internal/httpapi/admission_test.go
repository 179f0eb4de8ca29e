package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/solverutil"
)

// startStub serves the full handler over a service with a test solver, so
// admission behavior can be driven without real solves.
func startStub(t *testing.T, cfg service.Config, api Config) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(cfg)
	api.Service = svc
	srv := httptest.NewServer(New(api))
	t.Cleanup(func() {
		srv.Close()
		svc.CancelAll()
		svc.Close()
	})
	return srv, svc
}

// blockingSolve parks every solve until gate closes (or the job context
// ends) and counts invocations.
func blockingSolve(gate chan struct{}, runs *atomic.Int64) service.SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec service.JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		runs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return core.Outcome{Instance: g.Name()}
	}
}

// pathJobJSON builds a submission body for a path graph of n vertices —
// paths of distinct lengths are pairwise non-isomorphic, so test jobs
// never collapse into cache or dedup joins.
func pathJobJSON(name string, n int, extra string) string {
	var edges []string
	for v := 0; v+1 < n; v++ {
		edges = append(edges, fmt.Sprintf("[%d,%d]", v, v+1))
	}
	return fmt.Sprintf(`{"name":%q,"n":%d,"edges":[%s],"k":5%s}`,
		name, n, strings.Join(edges, ","), extra)
}

func doReq(t *testing.T, method, url, body string, header map[string]string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeEnvelope parses the unified error envelope, failing the test if
// the body is not one.
func decodeEnvelope(t *testing.T, resp *http.Response) ErrorDetail {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response content-type %q, want application/json", ct)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not an envelope: %v", err)
	}
	if env.Error.Code == "" {
		t.Fatal("error envelope has empty code")
	}
	return env.Error
}

// TestErrorEnvelopeEverywhere: every failure class on every endpoint
// answers with the unified envelope and its documented code + status.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, _ := startStub(t,
		service.Config{Workers: 1, Solve: blockingSolve(gate, &runs)},
		Config{MaxVertices: 50, MaxEdges: 100})
	defer close(gate)

	bigGraph := pathJobJSON("big", 51, "")
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", "POST", "/v1/jobs", "{not json", 400, CodeInvalidSpec},
		{"unknown field", "POST", "/v1/jobs", `{"bench":"myciel3","k":5,"bogus":1}`, 400, CodeInvalidSpec},
		{"no graph source", "POST", "/v1/jobs", `{"k":5}`, 400, CodeInvalidSpec},
		{"spec out of bounds", "POST", "/v1/jobs", pathJobJSON("neg", 3, `,"priority":-1`), 400, CodeInvalidSpec},
		{"graph too large", "POST", "/v1/jobs", bigGraph, 413, CodeGraphTooLarge},
		// Within the n/m limits, but (20+1)·2^20 formula slots > MaxFormulaSlots.
		{"formula too large", "POST", "/v1/jobs", `{"n":20,"edges":[[0,1]],"k":1048576}`, 413, CodeGraphTooLarge},
		{"job status 404", "GET", "/v1/jobs/job-999", "", 404, CodeJobNotFound},
		{"job result 404", "GET", "/v1/jobs/job-999/result", "", 404, CodeJobNotFound},
		{"job events 404", "GET", "/v1/jobs/job-999/events", "", 404, CodeJobNotFound},
		{"cancel 404", "DELETE", "/v1/jobs/job-999", "", 404, CodeJobNotFound},
		{"unknown route", "GET", "/v1/bogus", "", 404, CodeNotFound},
		{"unknown subresource", "GET", "/v1/jobs/job-999/bogus", "", 404, CodeNotFound},
		{"store unconfigured", "GET", "/v1/store", "", 404, CodeNotFound},
		{"stats wrong method", "POST", "/v1/stats", "", 405, CodeMethodNotAllowed},
		{"jobs wrong method", "PUT", "/v1/jobs", "", 405, CodeMethodNotAllowed},
		{"job wrong method", "PUT", "/v1/jobs/job-999", "", 405, CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doReq(t, tc.method, srv.URL+tc.path, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				resp.Body.Close()
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			detail := decodeEnvelope(t, resp)
			if detail.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", detail.Code, tc.wantCode)
			}
			if detail.RequestID == "" {
				t.Fatal("envelope lacks a request id")
			}
		})
	}
	if runs.Load() != 0 {
		t.Fatalf("rejected submissions invoked the solver %d times", runs.Load())
	}
}

// TestValidationFieldsOverHTTP: out-of-bounds spec values come back as
// per-field errors inside the envelope.
func TestValidationFieldsOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, _ := startStub(t, service.Config{Workers: 1, Solve: blockingSolve(gate, &runs)}, Config{})
	defer close(gate)

	resp := doReq(t, "POST", srv.URL+"/v1/jobs",
		pathJobJSON("bad", 3, `,"priority":99,"parallel":-2`), nil)
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	detail := decodeEnvelope(t, resp)
	if detail.Code != CodeInvalidSpec {
		t.Fatalf("code = %q", detail.Code)
	}
	got := map[string]bool{}
	for _, f := range detail.Fields {
		got[f.Field] = true
	}
	if !got["priority"] || !got["parallel"] {
		t.Fatalf("fields = %+v, want priority and parallel", detail.Fields)
	}
}

// TestQueueFullBackpressure: saturating the queue yields 429 queue_full
// with both retry_after_ms and a Retry-After header, and burns no worker.
func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, _ := startStub(t,
		service.Config{Workers: 1, QueueDepth: 2, Solve: blockingSolve(gate, &runs)},
		Config{})
	defer close(gate)

	var rejected *http.Response
	for i := 0; i < 10; i++ {
		resp := doReq(t, "POST", srv.URL+"/v1/jobs", pathJobJSON("q", 3+i, ""), nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if rejected == nil {
		t.Fatal("queue never filled")
	}
	if ra := rejected.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 lacks a Retry-After header")
	}
	detail := decodeEnvelope(t, rejected)
	if detail.Code != CodeQueueFull {
		t.Fatalf("code = %q, want %q", detail.Code, CodeQueueFull)
	}
	if detail.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", detail.RetryAfterMS)
	}
	if runs.Load() > 1 {
		t.Fatalf("rejected submissions reached the solver: %d runs", runs.Load())
	}
}

// TestTenantQuotaOverHTTP: one tenant exhausting its in-flight quota gets
// 429 tenant_over_quota while another tenant keeps submitting freely.
func TestTenantQuotaOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, _ := startStub(t,
		service.Config{Workers: 1, QueueDepth: 64, TenantMaxInFlight: 2, Solve: blockingSolve(gate, &runs)},
		Config{})
	defer close(gate)

	submit := func(tenant, name string, n int) *http.Response {
		return doReq(t, "POST", srv.URL+"/v1/jobs", pathJobJSON(name, n, ""),
			map[string]string{"X-Tenant": tenant})
	}
	for i := 0; i < 2; i++ {
		resp := submit("tenant-a", "a", 3+i)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("tenant-a submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := submit("tenant-a", "a-over", 20)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant-a over quota: status %d, want 429", resp.StatusCode)
	}
	detail := decodeEnvelope(t, resp)
	if detail.Code != CodeTenantOverQuota {
		t.Fatalf("code = %q, want %q", detail.Code, CodeTenantOverQuota)
	}
	// An unrelated tenant is not affected by tenant-a's saturation.
	resp = submit("tenant-b", "b", 30)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-b blocked by tenant-a's quota: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRequestIDEcho: a client-provided X-Request-ID is echoed on the
// response header and embedded in error envelopes; absent one, the daemon
// generates an id.
func TestRequestIDEcho(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, _ := startStub(t, service.Config{Workers: 1, Solve: blockingSolve(gate, &runs)}, Config{})
	defer close(gate)

	resp := doReq(t, "GET", srv.URL+"/v1/jobs/job-999", "",
		map[string]string{"X-Request-ID": "req-abc-123"})
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc-123" {
		t.Fatalf("X-Request-ID header = %q, want echo", got)
	}
	detail := decodeEnvelope(t, resp)
	if detail.RequestID != "req-abc-123" {
		t.Fatalf("envelope request_id = %q, want req-abc-123", detail.RequestID)
	}

	resp = doReq(t, "GET", srv.URL+"/healthz", "", nil)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on a bare request")
	}
	resp.Body.Close()
}

// TestDeadlineExpiredOverHTTP: a job whose end-to-end deadline elapses in
// the queue finishes as "expired" without a solver run, and its /result
// answers 504 deadline_exceeded.
func TestDeadlineExpiredOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, _ := startStub(t, service.Config{Workers: 1, Solve: blockingSolve(gate, &runs)}, Config{})

	// Park the only worker.
	resp := doReq(t, "POST", srv.URL+"/v1/jobs", pathJobJSON("gate", 2, ""), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gate submit: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = doReq(t, "POST", srv.URL+"/v1/jobs",
		pathJobJSON("doomed", 4, `,"deadline":"30ms"`), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("doomed submit: status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := out["id"]

	time.Sleep(50 * time.Millisecond) // let the deadline pass while queued
	close(gate)                       // release the worker; it pops the expired job
	waitDone(t, srv, id)

	resp = doReq(t, "GET", srv.URL+"/v1/jobs/"+id+"/result", "", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired result: status %d, want 504", resp.StatusCode)
	}
	detail := decodeEnvelope(t, resp)
	if detail.Code != CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", detail.Code, CodeDeadlineExceeded)
	}
	if runs.Load() != 1 {
		t.Fatalf("solver runs = %d, want 1 (gate only; expired job must not solve)", runs.Load())
	}
}

// TestPriorityOrderingOverHTTP: the priority field in the submission body
// reorders queued work end to end.
func TestPriorityOrderingOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	solve := func(ctx context.Context, g *graph.Graph, spec service.JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		mu.Lock()
		order = append(order, g.Name())
		mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return core.Outcome{Instance: g.Name()}
	}
	srv, svc := startStub(t, service.Config{Workers: 1, Solve: solve}, Config{})

	submit := func(name string, n, prio int) {
		resp := doReq(t, "POST", srv.URL+"/v1/jobs",
			pathJobJSON(name, n, fmt.Sprintf(`,"priority":%d`, prio)), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	submit("gate", 2, 0)
	// Wait for the gate job to occupy the worker so the rest queue up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		started := len(order) == 1
		mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate job never started")
		}
		time.Sleep(time.Millisecond)
	}
	submit("low", 3, 0)
	submit("high", 4, 5)
	close(gate)
	for _, info := range svc.Jobs() {
		if _, err := svc.Wait(context.Background(), info.ID); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	if got != "gate,high,low" {
		t.Fatalf("solve order = %q, want gate,high,low", got)
	}
}
