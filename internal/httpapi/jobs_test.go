package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/service"
	"repro/internal/solverutil"
)

// scriptedSolve is the solver of the job-listing tests, scripted by graph
// name: "panic" panics, "block" reports one snapshot and waits for its
// context, and every other graph reports one snapshot and is colored
// greedily, as optimal.
func scriptedSolve(ctx context.Context, g *graph.Graph, spec service.JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
	switch g.Name() {
	case "panic":
		panic("injected")
	case "block":
		progress(solverutil.Progress{Engine: "pbs2", Incumbent: -1, Conflicts: 3})
		<-ctx.Done()
		return core.Outcome{Instance: g.Name()}
	}
	progress(solverutil.Progress{Engine: "pbs2", Incumbent: 3, Conflicts: 5})
	col := make([]int, g.N())
	chi := 0
	for v := range col {
		used := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			if int(u) < v {
				used[col[u]] = true
			}
		}
		for used[col[v]] {
			col[v]++
		}
		chi = max(chi, col[v]+1)
	}
	out := core.Outcome{Instance: g.Name(), Chi: chi, Coloring: col}
	out.Result.Status = pbsolver.StatusOptimal
	out.Result.Objective = chi
	return out
}

func pathGraph(t *testing.T, name string, n int) *graph.Graph {
	t.Helper()
	var edges [][2]int
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	g, err := graph.FromEdges(name, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func submitGraph(t *testing.T, svc *service.Service, g *graph.Graph, spec service.JobSpec) string {
	t.Helper()
	id, err := svc.Submit(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// awaitProgress waits until the job has published a progress snapshot.
func awaitProgress(t *testing.T, svc *service.Service, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, more, err := svc.NextProgress(ctx, id, 0); err != nil || !more {
		t.Fatalf("job %s reported no progress (more %v, err %v)", id, more, err)
	}
}

// getBody fetches url and returns the status code and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// asJSON returns v as encoding/json decodes it into an any, so a value
// served over HTTP and one built in process compare field by field.
func asJSON(t *testing.T, v any) any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// eventLines fetches an NDJSON event stream with each event's timestamp
// masked.
func eventLines(t *testing.T, url string) []any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var lines []any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("event without ts: %s", sc.Bytes())
		}
		ev["ts"] = "masked"
		lines = append(lines, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// terminalAnswers is everything a finished job answers, in process and
// over HTTP.
type terminalAnswers struct {
	Info         service.JobInfo
	Progress     service.Progress
	Phase        string
	Next0        service.Progress
	More0        bool
	Trace        any
	Job          any
	ResultStatus int
	Result       any
	Events       []any
	EventsAfter  []any
}

// collectTerminal asks every accessor and endpoint about the finished job
// id, checking that they agree with one another.
func collectTerminal(t *testing.T, srv *httptest.Server, svc *service.Service, id string) terminalAnswers {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var a terminalAnswers
	var err error
	if a.Info, err = svc.Job(id); err != nil {
		t.Fatalf("Job(%s): %v", id, err)
	}
	if w, err := svc.Wait(ctx, id); err != nil || !reflect.DeepEqual(w, a.Info) {
		t.Fatalf("Wait(%s) = %+v, %v; want %+v", id, w, err, a.Info)
	}
	listed := 0
	for _, info := range svc.Jobs() {
		if info.ID == id {
			listed++
			if !reflect.DeepEqual(info, a.Info) {
				t.Fatalf("Jobs() lists %+v; Job(%s) = %+v", info, id, a.Info)
			}
		}
	}
	if listed != 1 {
		t.Fatalf("Jobs() lists %s %d times, want once", id, listed)
	}
	if a.Progress, err = svc.Progress(id); err != nil {
		t.Fatal(err)
	}
	if a.Phase, err = svc.JobPhase(id); err != nil {
		t.Fatal(err)
	}
	if a.Next0, a.More0, err = svc.NextProgress(ctx, id, 0); err != nil {
		t.Fatal(err)
	}
	last, more, err := svc.NextProgress(ctx, id, a.Progress.Seq)
	if err != nil || more || last != a.Progress {
		t.Fatalf("NextProgress(%s, %d) = %+v, %v, %v; want the last snapshot and no more", id, a.Progress.Seq, last, more, err)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatalf("Cancel(%s) on a finished job: %v", id, err)
	}
	if info, err := svc.Job(id); err != nil || !reflect.DeepEqual(info, a.Info) {
		t.Fatalf("Cancel changed finished job %s: %+v, %v; was %+v", id, info, err, a.Info)
	}
	tv, err := svc.Trace(id)
	if err != nil || tv.JobID != id || tv.Find("job") == nil {
		t.Fatalf("Trace(%s) = %+v, %v; want the job's span tree", id, tv, err)
	}
	a.Trace = asJSON(t, tv)

	code, body := getBody(t, srv.URL+"/v1/jobs/"+id)
	if code != http.StatusOK || json.Unmarshal(body, &a.Job) != nil {
		t.Fatalf("GET /v1/jobs/%s: %d %s", id, code, body)
	}
	if !reflect.DeepEqual(a.Job, asJSON(t, a.Info)) {
		t.Fatalf("GET /v1/jobs/%s = %s; Job = %+v", id, body, a.Info)
	}
	a.ResultStatus, body = getBody(t, srv.URL+"/v1/jobs/"+id+"/result")
	if err := json.Unmarshal(body, &a.Result); err != nil {
		t.Fatalf("GET /v1/jobs/%s/result: %d %s", id, a.ResultStatus, body)
	}
	if a.Info.Result != nil && !reflect.DeepEqual(a.Result, asJSON(t, a.Info.Result)) {
		t.Fatalf("GET /v1/jobs/%s/result = %s; Job's result = %+v", id, body, a.Info.Result)
	}
	if env, ok := a.Result.(map[string]any)["error"].(map[string]any); ok {
		env["request_id"] = "masked" // a new one per request
	}
	a.Events = eventLines(t, srv.URL+"/v1/jobs/"+id+"/events")
	a.EventsAfter = eventLines(t, srv.URL+"/v1/jobs/"+id+"/events?after="+strconv.FormatInt(a.Progress.Seq, 10))
	resultEvent := asJSON(t, map[string]any{"type": "result", "ts": "masked", "phase": "done", "job": a.Info})
	want := []any{resultEvent}
	if a.Progress.Seq > 0 {
		progressEvent := asJSON(t, map[string]any{"type": "progress", "ts": "masked", "phase": a.Progress.Phase, "progress": a.Progress})
		want = []any{progressEvent, resultEvent}
	}
	if !reflect.DeepEqual(a.Events, want) {
		t.Fatalf("GET /v1/jobs/%s/events = %v, want %v", id, a.Events, want)
	}
	if !reflect.DeepEqual(a.EventsAfter, []any{resultEvent}) {
		t.Fatalf("GET /v1/jobs/%s/events?after=%d = %v, want the result event alone", id, a.Progress.Seq, a.EventsAfter)
	}
	return a
}

// TestTerminalJobAnswers: one table over the terminal states — solved,
// cache hit, failed by an injected panic, cancelled while running,
// cancelled while queued and expired in queue. Each finished job must
// answer Job, Wait, Jobs, Progress, JobPhase, Cancel, NextProgress and
// Trace in process, and GET /v1/jobs/{id}, /result, /events and
// /events?after=<last seq> over HTTP, consistently, and the same right
// after it finished as once Close has waited out every worker.
func TestTerminalJobAnswers(t *testing.T) {
	srv, svc := startStub(t, service.Config{Workers: 1, Solve: scriptedSolve}, Config{Heartbeat: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait := func(id string) {
		t.Helper()
		if _, err := svc.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	spec := service.JobSpec{K: 4}
	cycle := graph.Cycle(5)
	solved := submitGraph(t, svc, cycle, spec)
	wait(solved)
	relabelled, err := graph.FromEdges("cycle-relabelled", 5, [][2]int{{2, 4}, {4, 1}, {1, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	hit := submitGraph(t, svc, relabelled, spec)
	wait(hit)
	failed := submitGraph(t, svc, pathGraph(t, "panic", 3), spec)
	wait(failed)

	// One job holds the only worker while two more wait in the queue: one
	// is cancelled there, the other outlives its deadline.
	running := submitGraph(t, svc, pathGraph(t, "block", 4), spec)
	awaitProgress(t, svc, running)
	queued := submitGraph(t, svc, pathGraph(t, "queued", 6), spec)
	expired := submitGraph(t, svc, pathGraph(t, "expired", 7), service.JobSpec{K: 4, Deadline: 20 * time.Millisecond})
	if err := svc.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := svc.Cancel(running); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running, queued, expired} {
		wait(id)
	}

	cases := []struct {
		name, id     string
		state        string
		result       bool // the job reports a result
		cacheHit     bool
		progress     bool // the solver reported a snapshot
		resultStatus int  // GET /result
		errCode      string
	}{
		{"solved", solved, "done", true, false, true, http.StatusOK, ""},
		{"cache hit", hit, "done", true, true, false, http.StatusOK, ""},
		{"failed by panic", failed, "failed", false, false, false, http.StatusInternalServerError, CodeJobFailed},
		{"cancelled while running", running, "canceled", true, false, true, http.StatusOK, ""},
		{"cancelled while queued", queued, "canceled", false, false, false, http.StatusGone, CodeJobCanceled},
		{"expired in queue", expired, "expired", false, false, false, http.StatusGatewayTimeout, CodeDeadlineExceeded},
	}
	first := make(map[string]terminalAnswers)
	for _, c := range cases {
		a := collectTerminal(t, srv, svc, c.id)
		first[c.id] = a
		info := a.Info
		if info.State != c.state || (info.Result != nil) != c.result || (a.Progress.Seq > 0) != c.progress {
			t.Fatalf("%s: state %q, result %+v, progress %+v; want %q, result %v, progress %v",
				c.name, info.State, info.Result, a.Progress, c.state, c.result, c.progress)
		}
		if info.Started.IsZero() != (c.name == "cancelled while queued" || c.name == "expired in queue") || info.Finished.IsZero() {
			t.Fatalf("%s: started %v, finished %v", c.name, info.Started, info.Finished)
		}
		if c.result && (info.Result.CacheHit != c.cacheHit || (c.state == "done" && len(info.Result.Coloring) != 5)) {
			t.Fatalf("%s: result %+v", c.name, info.Result)
		}
		if a.Phase != "done" || a.Next0 != a.Progress || a.More0 != c.progress {
			t.Fatalf("%s: phase %q, NextProgress(0) = %+v, %v; want done and the last snapshot", c.name, a.Phase, a.Next0, a.More0)
		}
		if a.ResultStatus != c.resultStatus {
			t.Fatalf("%s: GET /result status %d, want %d", c.name, a.ResultStatus, c.resultStatus)
		}
		if c.errCode != "" {
			env, _ := a.Result.(map[string]any)["error"].(map[string]any)
			if env["code"] != c.errCode {
				t.Fatalf("%s: GET /result = %v, want error code %s", c.name, a.Result, c.errCode)
			}
		}
	}
	if info := first[failed].Info; info.Err == "" || info.Stack == "" {
		t.Fatalf("failed job: error %q, stack %d bytes; want both", info.Err, len(info.Stack))
	}
	if info := first[expired].Info; info.Err != context.DeadlineExceeded.Error() {
		t.Fatalf("expired job: error %q", info.Err)
	}

	// Once Close returns, every finish has run to its end.
	svc.Close()
	for _, c := range cases {
		if a := collectTerminal(t, srv, svc, c.id); !reflect.DeepEqual(a, first[c.id]) {
			t.Fatalf("%s: after Close the job answers\n%+v\nwhere it answered\n%+v", c.name, a, first[c.id])
		}
	}
}

// TestJobListing: GET /v1/jobs lists a queued, a running and a finished
// job with their states, and the finished job with its result.
func TestJobListing(t *testing.T) {
	srv, svc := startStub(t, service.Config{Workers: 1, Solve: scriptedSolve}, Config{})
	spec := service.JobSpec{K: 4}
	finished := submitGraph(t, svc, graph.Cycle(5), spec)
	info, err := svc.Wait(context.Background(), finished)
	if err != nil {
		t.Fatal(err)
	}
	running := submitGraph(t, svc, pathGraph(t, "block", 4), spec)
	awaitProgress(t, svc, running)
	queued := submitGraph(t, svc, pathGraph(t, "queued", 6), spec)

	code, body := getBody(t, srv.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d %s", code, body)
	}
	var listed []struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Result *service.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, j := range listed {
		states[j.ID] = j.State
		switch {
		case j.ID == finished && !reflect.DeepEqual(j.Result, info.Result):
			t.Fatalf("listed result %+v, want %+v", j.Result, info.Result)
		case j.ID != finished && j.Result != nil:
			t.Fatalf("unfinished job %s lists result %+v", j.ID, j.Result)
		}
	}
	want := map[string]string{finished: "done", running: "running", queued: "queued"}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("GET /v1/jobs states = %v, want %v", states, want)
	}
	if info.Result == nil || !info.Result.Solved || info.Result.Chi != 3 || len(info.Result.Coloring) != 5 {
		t.Fatalf("finished job's result %+v, want χ=3 with a coloring", info.Result)
	}
}
