package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/solverutil"
	"repro/internal/store"
)

var updateWire = flag.Bool("update", false, "rewrite the wire golden files under testdata/")

// TestWireGolden pins the two counter surfaces, GET /metrics and GET
// /v1/stats, on three fixed daemons: every family with its HELP and TYPE
// lines, every series and label, every /v1/stats key with its JSON type
// and its omit-when-empty rule. Only values that depend on the clock are
// masked: histogram buckets and sums, degraded_since, and the WAL's size
// (a record carries its solve's runtime). The stats body is decoded with UseNumber, so a counter
// rendered as 5.0, or a key that goes missing, fails here instead of
// reading as 0 to a client that decodes into an int64.
//
// Run with -update to rewrite the golden files after a deliberate change.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(t *testing.T) *httptest.Server
	}{
		{"memory", wireMemoryDaemon},
		{"disk", wireDiskDaemon},
		{"untraced", wireUntracedDaemon},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.drive(t)
			wireIdle(t, srv)
			metrics := wireGet(t, srv, "/metrics", "text/plain; version=0.0.4; charset=utf-8")
			stats := wireGet(t, srv, "/v1/stats", "application/json")
			wireCompare(t, filepath.Join("testdata", "wire_"+tc.name+".metrics"), maskMetrics(metrics))
			wireCompare(t, filepath.Join("testdata", "wire_"+tc.name+".stats.json"), maskStats(t, stats))
		})
	}
}

// wireSolve is the real solver, except that a graph named "blocker"
// waits for gate before solving and one named "boom" panics.
func wireSolve(gate <-chan struct{}) service.SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec service.JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		switch g.Name() {
		case "blocker":
			<-gate
		case "boom":
			panic("wire test panic")
		}
		return service.DefaultSolve(ctx, g, spec, sym, progress)
	}
}

// wireMemoryDaemon drives a memory-backed, traced daemon through a solve,
// a relabelled cache hit, an instance-dependent solve (so sbp_variants
// appears), a job that expires in the queue, a solver panic, and every
// admission refusal: invalid spec, tenant over quota, queue full and
// draining, across two tenants. Four traces are kept, so two are evicted.
func wireMemoryDaemon(t *testing.T) *httptest.Server {
	gate := make(chan struct{})
	srv, svc := startStub(t, service.Config{
		Workers:           1,
		QueueDepth:        1,
		TenantMaxInFlight: 2,
		DefaultTimeout:    30 * time.Second,
		TraceKeep:         4,
		Solve:             wireSolve(gate),
	}, Config{})
	beta := map[string]string{"X-Tenant": "beta"}

	wireWait(t, svc, wireSubmit(t, srv, `{"bench":"myciel3","k":5}`, nil))
	wireWait(t, svc, wireSubmit(t, srv, relabelledMyciel3(t), nil))
	wireWait(t, svc, wireSubmit(t, srv, `{"bench":"myciel3","k":5,"sbp":"NU+SC","instance_dependent":true}`, beta))
	wireRefuse(t, srv, `{"bench":"myciel3","k":5,"priority":99}`, nil, http.StatusBadRequest, CodeInvalidSpec)

	blocker := wireSubmit(t, srv, pathJobJSON("blocker", 4, ""), beta)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if info, err := svc.Job(blocker); err == nil && info.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := wireSubmit(t, srv, pathJobJSON("queued", 5, `,"deadline":"1ms"`), beta)
	wireRefuse(t, srv, pathJobJSON("over", 6, ""), beta, http.StatusTooManyRequests, CodeTenantOverQuota)
	wireRefuse(t, srv, pathJobJSON("full", 7, ""), nil, http.StatusTooManyRequests, CodeQueueFull)
	time.Sleep(5 * time.Millisecond) // the queued job's deadline passes
	close(gate)
	wireWait(t, svc, blocker)
	if info := wireWait(t, svc, queued); info.State != "expired" {
		t.Fatalf("queued job ended %s, want expired", info.State)
	}
	if info := wireWait(t, svc, wireSubmit(t, srv, pathJobJSON("boom", 8, ""), nil)); info.State != "failed" {
		t.Fatalf("panicking job ended %s, want failed", info.State)
	}
	svc.BeginDrain()
	wireRefuse(t, srv, pathJobJSON("late", 9, ""), nil, http.StatusServiceUnavailable, CodeDraining)
	return srv
}

// wireDiskDaemon wires the disk store and journal as gcolord -store.dir
// does, and runs a solve and a relabelled cache hit through them.
func wireDiskDaemon(t *testing.T) *httptest.Server {
	dir := t.TempDir()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	disk, err := service.OpenDiskBackendOptions(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backend := service.NewResilientBackend(disk, func() (service.Backend, error) {
		return service.OpenDiskBackendOptions(dir, store.Options{})
	}, logger)
	journal, err := service.OpenDiskJournal(filepath.Join(dir, "journal"), store.Options{}, logger)
	if err != nil {
		t.Fatal(err)
	}
	srv, svc := startStub(t, service.Config{
		Workers:        1,
		DefaultTimeout: 30 * time.Second,
		Backend:        backend,
		Journal:        journal,
		Logger:         logger,
	}, Config{Disk: backend})
	wireWait(t, svc, wireSubmit(t, srv, `{"bench":"myciel3","k":5}`, nil))
	wireWait(t, svc, wireSubmit(t, srv, relabelledMyciel3(t), nil))
	return srv
}

// wireUntracedDaemon runs one solve with tracing off, so the phase and
// flight-recorder families are absent.
func wireUntracedDaemon(t *testing.T) *httptest.Server {
	srv, svc := startStub(t, service.Config{
		Workers:        1,
		DefaultTimeout: 30 * time.Second,
		TraceKeep:      -1,
	}, Config{})
	wireWait(t, svc, wireSubmit(t, srv, `{"bench":"myciel3","k":5}`, nil))
	return srv
}

// relabelledMyciel3 is myciel3 under the vertex map v → 5v+2 mod 11, as an
// edge-list body: isomorphic, so it is answered from the cache.
func relabelledMyciel3(t *testing.T) string {
	t.Helper()
	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, g.N())
	for v := range perm {
		perm[v] = (5*v + 2) % g.N()
	}
	return edgeListJSON(g, perm, `,"k":5`)
}

// edgeListJSON is the submission body for g with vertex v renamed
// perm[v], followed by the extra fields.
func edgeListJSON(g *graph.Graph, perm []int, extra string) string {
	var edges []string
	for _, e := range g.Edges() {
		edges = append(edges, fmt.Sprintf("[%d,%d]", perm[e[0]], perm[e[1]]))
	}
	return fmt.Sprintf(`{"n":%d,"edges":[%s]%s}`, g.N(), strings.Join(edges, ","), extra)
}

func wireSubmit(t *testing.T, srv *httptest.Server, body string, header map[string]string) string {
	t.Helper()
	resp := doReq(t, http.MethodPost, srv.URL+"/v1/jobs", body, header)
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %.60s: status %d, %v", body, resp.StatusCode, err)
	}
	return out["id"]
}

func wireRefuse(t *testing.T, srv *httptest.Server, body string, header map[string]string, status int, code string) {
	t.Helper()
	resp := doReq(t, http.MethodPost, srv.URL+"/v1/jobs", body, header)
	if resp.StatusCode != status {
		resp.Body.Close()
		t.Fatalf("submit %.60s: status %d, want %d", body, resp.StatusCode, status)
	}
	if got := decodeEnvelope(t, resp).Code; got != code {
		t.Fatalf("submit %.60s: code %q, want %q", body, got, code)
	}
}

// wireWait waits for the job's end, and then for its trace: the job's
// journal entry is retired and its trace recorded after Wait returns.
func wireWait(t *testing.T, svc *service.Service, id string) service.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	svc.Trace(id)
	return info
}

// wireIdle waits until no worker counts itself running: a worker leaves
// the running gauge only after the job it ran has finished.
func wireIdle(t *testing.T, srv *httptest.Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st struct {
			Running int64 `json:"running"`
		}
		if err := json.Unmarshal(wireGet(t, srv, "/v1/stats", "application/json"), &st); err != nil {
			t.Fatal(err)
		}
		if st.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still running", st.Running)
		}
		time.Sleep(time.Millisecond)
	}
}

func wireGet(t *testing.T, srv *httptest.Server, path, contentType string) []byte {
	t.Helper()
	resp := doReq(t, http.MethodGet, srv.URL+path, "", nil)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != contentType {
		t.Fatalf("GET %s: status %d, content type %q; want 200, %q", path, resp.StatusCode, resp.Header.Get("Content-Type"), contentType)
	}
	return body
}

// clockSeries matches the /metrics samples whose values depend on the
// clock: histogram buckets and sums, and the WAL's size.
var clockSeries = regexp.MustCompile(`^gcolord_(\w+_bucket\{.*\}|\w+_seconds_sum(\{.*\})?|store_wal_bytes) `)

func maskMetrics(text []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if m := clockSeries.FindString(line); m != "" {
			line = m + "<masked>\n"
		}
		out.WriteString(line)
	}
	return out.Bytes()
}

// maskStats decodes the /v1/stats body with UseNumber, so every number
// keeps its literal form, masks the clock-dependent values, and renders
// the result with sorted keys.
func maskStats(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var st map[string]any
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("decode /v1/stats: %v\n%s", err, body)
	}
	if qw, ok := st["queue_wait"].(map[string]any); ok {
		qw["sum_ms"] = "<masked>"
		if buckets, ok := qw["buckets"].([]any); ok {
			for _, b := range buckets {
				if b, ok := b.(map[string]any); ok {
					b["count"] = "<masked>"
				}
			}
		}
	}
	for _, key := range []string{"store_health", "journal_health"} {
		if h, ok := st[key].(map[string]any); ok {
			if _, ok := h["degraded_since"]; ok {
				h["degraded_since"] = "<masked>"
			}
		}
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func wireCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateWire {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestDocsNameEveryMetric: docs/API.md names every /metrics family and
// every /v1/stats key the daemon declares, with tracing on and a store
// attached.
func TestDocsNameEveryMetric(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	families, keys := svc.Metrics().Names()
	storeFamilies, _ := storeMetrics(nil).Names()
	for _, name := range append(families, storeFamilies...) {
		if !regexp.MustCompile(`\b` + name + `\b`).Match(doc) {
			t.Errorf("docs/API.md does not name the /metrics family %s", name)
		}
	}
	for _, key := range keys {
		if !bytes.Contains(doc, []byte("`"+key+"`")) {
			t.Errorf("docs/API.md does not name the /v1/stats key %s", key)
		}
	}
}
