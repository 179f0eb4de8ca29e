package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/solverutil"
)

// A span is one timed call recorded by the benchmark's own code. Spans of
// one job share its service job id; Parent names the span of the same job
// that encloses this one ("" for a root or an unattributed call).
type span struct {
	Name     string
	Job      string
	Parent   string
	Start    time.Time
	End      time.Time
	Counters map[string]int64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// solve is the traced service.Config.Solve seam: the daemon's default
// solver (all of core.Solve) timed per call. The service runs it under a
// pprof label naming the job, which attributes the span.
func (t *tracer) solve(ctx context.Context, g *graph.Graph, spec service.JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
	start := time.Now()
	out := service.DefaultSolve(ctx, g, spec, sym, progress)
	id, _ := pprof.Label(ctx, "job")
	t.record(span{Name: "service.solve", Job: id, Parent: "httpapi.wait", Start: start, End: time.Now()})
	return out
}

// tracedBackend times the cache backend's Get and Put. The service passes
// them no job, so their spans are unattributed.
type tracedBackend struct {
	service.Backend
	tr *tracer
}

func (b *tracedBackend) Get(key string) (service.CacheRecord, bool) {
	start := time.Now()
	rec, ok := b.Backend.Get(key)
	b.tr.record(span{Name: "store.get", Start: start, End: time.Now()})
	return rec, ok
}

func (b *tracedBackend) Put(key string, rec service.CacheRecord) error {
	start := time.Now()
	err := b.Backend.Put(key, rec)
	b.tr.record(span{Name: "store.put", Start: start, End: time.Now()})
	return err
}

// Health forwards to the wrapped backend, so /v1/stats reports store
// health as it does untraced.
func (b *tracedBackend) Health() service.Health {
	if hr, ok := b.Backend.(service.HealthReporter); ok {
		return hr.Health()
	}
	return service.Health{}
}

// tracedJournal times the job journal's Record (inside the submit request)
// and Done (after the job finished).
type tracedJournal struct {
	service.Journal
	tr *tracer
}

func (j *tracedJournal) Record(e service.JournalEntry) error {
	start := time.Now()
	err := j.Journal.Record(e)
	j.tr.record(span{Name: "store.journal.record", Job: e.ID, Parent: "httpapi.submit", Start: start, End: time.Now()})
	return err
}

func (j *tracedJournal) Done(id string) error {
	start := time.Now()
	err := j.Journal.Done(id)
	j.tr.record(span{Name: "store.journal.done", Job: id, Parent: "httpapi.wait", Start: start, End: time.Now()})
	return err
}

// selfTimes returns, for each span, its duration minus the part of it
// covered by its children (spans of the same job naming it as Parent).
func selfTimes(spans []span) []time.Duration {
	type key struct{ job, name string }
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Job != "" && s.Parent != "" {
			k := key{s.Job, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[key{s.Job, s.Name}])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var cur time.Time // end of the interval merged so far
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(s.Start) {
			start = s.Start
		}
		if end.After(s.End) {
			end = s.End
		}
		if start.Before(cur) {
			start = cur
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines: id, parent id, job, name,
// start offset and duration, self time and counters.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type key struct{ job, name string }
	ids := make(map[key]int, len(spans))
	var epoch time.Time
	for i, s := range spans {
		if s.Job != "" {
			if _, dup := ids[key{s.Job, s.Name}]; !dup {
				ids[key{s.Job, s.Name}] = i
			}
		}
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		parent := -1
		if p, ok := ids[key{s.Job, s.Parent}]; ok && s.Parent != "" {
			parent = p
		}
		err = enc.Encode(struct {
			ID       int              `json:"id"`
			Parent   int              `json:"parent"`
			Job      string           `json:"job,omitempty"`
			Name     string           `json:"name"`
			StartNS  int64            `json:"start_ns"`
			DurNS    int64            `json:"dur_ns"`
			SelfNS   int64            `json:"self_ns"`
			Counters map[string]int64 `json:"counters,omitempty"`
		}{i, parent, s.Job, s.Name, int64(s.Start.Sub(epoch)), int64(s.dur()), int64(self[i]), s.Counters})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
