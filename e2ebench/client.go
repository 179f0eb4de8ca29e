package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// answer is what the client learned about one job.
type answer struct {
	index     int    // position in the job list
	id        string // service job id ("" when the POST was refused)
	status    int    // POST status code
	latency   time.Duration
	queueWait time.Duration
	cacheHit  bool
	conflicts int64
	solved    bool // definitive answer that passed every check
	wrong     string
}

// phase is the outcome of driving one job list through a daemon.
type phase struct {
	answers []answer
	wall    time.Duration
	cpu     time.Duration
	// exhausted reports that a non-cycling list ran out before the time
	// was up.
	exhausted bool
}

// drive runs jobs through d with the workload's closed loop: each client
// sends its next job only after the previous one's result event arrived.
// With dur > 0 clients stop taking jobs once dur has passed (jobs in flight
// finish); with dur == 0 the list runs once.
func drive(d *daemon, w workload, jobs []job, dur time.Duration, tr *tracer) phase {
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		mu        sync.Mutex
		answers   []answer
		wg        sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					if dur > 0 && w.cycle {
						i %= len(jobs)
					} else {
						exhausted.Store(dur > 0)
						return
					}
				}
				a := runJob(client, d.base, jobs[i], tr)
				a.index = i
				mu.Lock()
				answers = append(answers, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return phase{
		answers:   answers,
		wall:      time.Since(start),
		cpu:       cpuTime() - cpu0,
		exhausted: exhausted.Load(),
	}
}

// resultEvent is the part of the terminal /events line the checks read.
type resultEvent struct {
	Job *struct {
		State     string        `json:"state"`
		QueueWait time.Duration `json:"queue_wait"`
		Result    *struct {
			Solved    bool  `json:"solved"`
			Chi       int   `json:"chi"`
			Coloring  []int `json:"coloring"`
			CacheHit  bool  `json:"cache_hit"`
			Conflicts int64 `json:"conflicts"`
		} `json:"result"`
	} `json:"job"`
}

// runJob submits one job and blocks on its event stream until the result
// event, which the service sends the moment the job finishes.
func runJob(c *http.Client, base string, j job, tr *tracer) answer {
	var a answer
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return a // a transport error is a failed job, not a wrong answer
	}
	var sub struct {
		ID string `json:"id"`
	}
	a.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&sub)
	drain(resp)
	t1 := time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return a // refused (e.g. 429): unsolved
	}
	a.id = sub.ID
	ev, err := awaitResult(c, base, sub.ID)
	t2 := time.Now()
	a.latency = t2.Sub(t0)
	if tr != nil {
		tr.record(span{Name: "client.job", Job: a.id, Start: t0, End: t2})
		tr.record(span{Name: "httpapi.submit", Job: a.id, Parent: "client.job", Start: t0, End: t1})
		tr.record(span{Name: "httpapi.wait", Job: a.id, Parent: "client.job", Start: t1, End: t2})
	}
	if err != nil || ev.Job == nil {
		return a
	}
	a.queueWait = ev.Job.QueueWait
	res := ev.Job.Result
	if ev.Job.State != "done" || res == nil || !res.Solved {
		return a // failed, canceled or not decided: unsolved
	}
	a.cacheHit = res.CacheHit
	a.conflicts = res.Conflicts
	if a.wrong = check(j, res.Chi, res.Coloring); a.wrong == "" {
		a.solved = true
	}
	return a
}

func awaitResult(c *http.Client, base, id string) (resultEvent, error) {
	var ev resultEvent
	resp, err := c.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return ev, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(`"type":"result"`)) {
			continue // progress or heartbeat
		}
		err := json.Unmarshal(line, &ev)
		return ev, err
	}
	if err := sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.ErrUnexpectedEOF
}

// check verifies a definitive answer against the job's reference χ: the
// claimed χ must match, and the coloring must be proper on the graph as
// submitted and use exactly χ colors. It returns "" when all hold.
func check(j job, chi int, coloring []int) string {
	if chi != j.chi {
		return fmt.Sprintf("chi %d, want %d", chi, j.chi)
	}
	if len(coloring) != j.n {
		return fmt.Sprintf("coloring has %d entries for %d vertices", len(coloring), j.n)
	}
	used := make(map[int]bool)
	for v, c := range coloring {
		if c < 0 {
			return fmt.Sprintf("vertex %d has color %d", v, c)
		}
		used[c] = true
	}
	if len(used) != j.chi {
		return fmt.Sprintf("coloring uses %d colors, want %d", len(used), j.chi)
	}
	for _, e := range j.edges {
		if coloring[e[0]] == coloring[e[1]] {
			return fmt.Sprintf("edge (%d,%d) is monochromatic", e[0], e[1])
		}
	}
	return ""
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", strings.TrimPrefix(url, "http://"), resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain reads the rest of the body and closes it, so the connection goes
// back to the client's pool for the next request.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
