package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// startDaemon spins up the full handler over a real service (real solver)
// backed by dir (memory backend when dir is "").
func startDaemon(t *testing.T, dir string) (*httptest.Server, *service.Service) {
	t.Helper()
	var backend service.Backend
	var disk *service.DiskBackend
	if dir != "" {
		var err error
		disk, err = service.OpenDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		backend = disk
	}
	svc := service.New(service.Config{
		Workers:          2,
		DefaultTimeout:   30 * time.Second,
		Backend:          backend,
		ProgressInterval: time.Millisecond,
	})
	cfg := Config{Service: svc, Heartbeat: 50 * time.Millisecond}
	if disk != nil { // assign only when real: a typed-nil interface would read as configured
		cfg.Disk = disk
	}
	srv := httptest.NewServer(New(cfg))
	t.Cleanup(func() {
		srv.Close()
		svc.CancelAll()
		svc.Close()
	})
	return srv, svc
}

func submitJob(t *testing.T, srv *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"]
}

// TestEventsStream drives a real (small but non-trivial) solve through the
// daemon and asserts the NDJSON stream yields progress events before the
// terminal result event.
func TestEventsStream(t *testing.T) {
	srv, _ := startDaemon(t, "")
	// myciel4 at K=8 finds a feasible coloring quickly but cannot prove
	// optimality, so the 2s budget guarantees ~2s of live search — plenty
	// of crossings of the 1ms progress interval — with a deterministic
	// test duration. (The solved-terminal path is covered by
	// TestKillAndRestartServesFromDisk.)
	id := submitJob(t, srv, `{"bench":"myciel4","k":8,"engine":"pbs2","timeout":"2s"}`)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events: content-type %q", ct)
	}

	type ev struct {
		Type     string            `json:"type"`
		Progress *service.Progress `json:"progress"`
		Job      *service.JobInfo  `json:"job"`
	}
	var progressEvents, heartbeats int
	var terminal *ev
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch e.Type {
		case "progress":
			progressEvents++
			if e.Progress == nil || e.Progress.Conflicts < 0 {
				t.Fatalf("malformed progress event: %s", line)
			}
		case "heartbeat":
			heartbeats++
		case "result":
			terminal = &e
		default:
			t.Fatalf("unknown event type %q", e.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal == nil {
		t.Fatal("stream ended without a result event")
	}
	if progressEvents == 0 {
		t.Fatal("no progress events before the terminal result")
	}
	if terminal.Job == nil || terminal.Job.Result == nil {
		t.Fatalf("terminal event lacks a result: %+v", terminal.Job)
	}
	if terminal.Job.State != "done" {
		t.Fatalf("terminal state = %q, want done", terminal.Job.State)
	}
	t.Logf("stream: %d progress events, %d heartbeats, final status %s",
		progressEvents, heartbeats, terminal.Job.Result.Status)
}

// TestEventsStreamFinishedJob: opening the stream after the job finished
// yields the last progress snapshot (if the solve ever reported one) and
// then the terminal event, immediately — no waiting, no heartbeats.
func TestEventsStreamFinishedJob(t *testing.T) {
	srv, svc := startDaemon(t, "")
	id := submitJob(t, srv, `{"bench":"myciel3","k":5}`)
	if _, err := svc.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var types []string
	for sc.Scan() {
		var e struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		types = append(types, e.Type)
	}
	if len(types) == 0 || types[len(types)-1] != "result" {
		t.Fatalf("finished-job stream = %v, want ... result", types)
	}
	for _, ty := range types[:len(types)-1] {
		if ty != "progress" {
			t.Fatalf("finished-job stream = %v: unexpected %q", types, ty)
		}
	}
}

// TestEventsUnknownJob: 404 with a JSON error body.
func TestEventsUnknownJob(t *testing.T) {
	srv, _ := startDaemon(t, "")
	resp, err := http.Get(srv.URL + "/v1/jobs/job-999/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestKillAndRestartServesFromDisk is the daemon-level acceptance
// scenario: solve through one daemon with a store directory, tear it down,
// start a second daemon over the same directory, submit an isomorphic
// relabeling, and require a cache hit with zero solver runs.
func TestKillAndRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	srv1, svc1 := startDaemon(t, dir)
	id := submitJob(t, srv1, `{"bench":"queen5_5","k":5}`)
	info, err := svc1.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result == nil || !info.Result.Solved {
		t.Fatalf("first daemon failed to solve: %+v", info)
	}
	srv1.Close()
	svc1.Close()

	// Second life. Submit queen5_5 relabelled by an explicit edge list
	// (reversed vertex numbering — an isomorphic copy the daemon has
	// never seen under this name).
	srv2, svc2 := startDaemon(t, dir)
	g := queenGraphEdges(5)
	n := 25
	var edges []string
	for _, e := range g {
		edges = append(edges, fmt.Sprintf("[%d,%d]", n-1-e[0], n-1-e[1]))
	}
	body := fmt.Sprintf(`{"name":"queen5_5-relabeled","n":%d,"edges":[%s],"k":5}`,
		n, strings.Join(edges, ","))
	id2 := submitJob(t, srv2, body)
	info2, err := svc2.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Result == nil || !info2.Result.Solved {
		t.Fatalf("second daemon failed: %+v", info2)
	}
	if !info2.Result.CacheHit {
		t.Fatal("restarted daemon did not serve the isomorphic submission from disk")
	}
	if runs := svc2.Metrics().Snapshot().Int("solver_runs"); runs != 0 {
		t.Fatalf("restarted daemon ran %d solves, want 0", runs)
	}

	// The store endpoint reports the persisted state.
	resp, err := http.Get(srv2.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var storeStats struct {
		Entries int `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&storeStats); err != nil {
		t.Fatal(err)
	}
	if storeStats.Entries != 1 {
		t.Fatalf("store entries = %d, want 1", storeStats.Entries)
	}
}

// queenGraphEdges reproduces the queen graph's edge set (two squares
// attack each other on a row, column, or diagonal) without going through
// the benchmark registry, so the test controls the vertex numbering.
func queenGraphEdges(n int) [][2]int {
	var edges [][2]int
	for a := 0; a < n*n; a++ {
		for b := a + 1; b < n*n; b++ {
			r1, c1 := a/n, a%n
			r2, c2 := b/n, b%n
			if r1 == r2 || c1 == c2 || r1-c1 == r2-c2 || r1+c1 == r2+c2 {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	return edges
}
