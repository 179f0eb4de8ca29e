package obs

import (
	"math"
	"sync"
	"time"
)

// SpanView is the serialized form of one span in a trace's JSON tree:
// offsets are relative to the trace start so a client can render a
// flame/waterfall view without clock arithmetic.
type SpanView struct {
	ID            uint64      `json:"id"`
	Name          string      `json:"name"`
	StartOffsetMS float64     `json:"start_offset_ms"`
	DurationMS    float64     `json:"duration_ms"`
	Attrs         []Attr      `json:"attrs,omitempty"`
	Children      []*SpanView `json:"children,omitempty"`
}

// TraceView is the completed trace as served by GET /v1/jobs/{id}/trace:
// the correlation id, the wall-clock start, the end-to-end duration, and
// the span tree (Spans holds the roots; the service's taxonomy has a
// single "job" root).
type TraceView struct {
	TraceID    string      `json:"trace_id"`
	JobID      string      `json:"job_id"`
	Start      time.Time   `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Spans      []*SpanView `json:"spans"`
}

// Find returns the first span view with the given name in depth-first
// order (nil when absent) — the shape tests' accessor.
func (v *TraceView) Find(name string) *SpanView {
	if v == nil {
		return nil
	}
	var walk func(list []*SpanView) *SpanView
	walk = func(list []*SpanView) *SpanView {
		for _, s := range list {
			if s.Name == name {
				return s
			}
			if hit := walk(s.Children); hit != nil {
				return hit
			}
		}
		return nil
	}
	return walk(v.Spans)
}

// View snapshots the trace as a span tree. Unended spans (a trace
// snapshotted mid-flight, or a phase orphaned by a panic) appear with the
// duration they had accumulated at snapshot time. Spans whose parent id
// is unknown are promoted to roots rather than dropped.
func (t *Trace) View() *TraceView {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := &TraceView{TraceID: t.id, JobID: t.jobID, Start: t.start}
	views := make(map[uint64]*SpanView, len(t.spans))
	var total time.Duration
	for _, s := range t.spans {
		dur := s.dur
		if !s.ended {
			dur = now.Sub(s.start)
		}
		sv := &SpanView{
			ID:            s.id,
			Name:          s.name,
			StartOffsetMS: durMS(s.start.Sub(t.start)),
			DurationMS:    durMS(dur),
			Attrs:         append([]Attr(nil), s.attrs...),
		}
		views[s.id] = sv
		if end := s.start.Sub(t.start) + dur; end > total {
			total = end
		}
	}
	// Spans were appended in start order, so children attach in order.
	for _, s := range t.spans {
		sv := views[s.id]
		if p, ok := views[s.parent]; ok && s.parent != s.id {
			p.Children = append(p.Children, sv)
		} else {
			v.Spans = append(v.Spans, sv)
		}
	}
	v.DurationMS = durMS(total)
	return v
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// PhaseBuckets are the bucket bounds of the per-phase latency histograms,
// 100 µs to 60 s (an implicit +Inf bucket follows). Sub-millisecond
// buckets exist because admission and persist phases run in microseconds
// while solve phases run in seconds — one bucket layout covers both.
var PhaseBuckets = []time.Duration{
	1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10, 3e10, 6e10,
}

// Recorder is the bounded in-memory flight recorder: the newest keep
// completed traces, indexed by job id, plus cumulative per-phase latency
// histograms over every trace ever recorded (histograms survive ring
// eviction — they aggregate, the ring retains detail).
type Recorder struct {
	mu sync.Mutex
	// ring is a circular buffer of len keep holding n traces, the oldest
	// at head. A slot is cleared when its trace leaves, so the recorder
	// keeps no evicted trace reachable.
	ring  []*TraceView
	head  int
	n     int
	byJob map[string]*TraceView

	phases   *HistogramVec
	recorded *Counter
	evicted  *Counter
}

// NewRecorder builds a recorder retaining the newest keep traces
// (keep < 1 is clamped to 1; fully disabled tracing is the service not
// constructing a recorder at all) and declares its families in reg: the
// phase_seconds{phase} histograms, traces_recorded_total,
// traces_evicted_total and traces_kept.
func NewRecorder(keep int, reg *Registry) *Recorder {
	if keep < 1 {
		keep = 1
	}
	r := &Recorder{
		ring:  make([]*TraceView, keep),
		byJob: make(map[string]*TraceView, keep),
	}
	r.phases = reg.HistogramVec("phase_seconds", "Time spent per job lifecycle phase, from completed traces.", "phase", PhaseBuckets)
	r.recorded = reg.Counter("traces_recorded_total", "", "Completed job traces recorded by the flight recorder.")
	r.evicted = reg.Counter("traces_evicted_total", "", "Traces pushed out of the flight recorder ring by newer ones.")
	reg.Gauge("traces_kept", "", "Completed traces currently held by the flight recorder.", r.kept)
	return r
}

// slot is the ring index of the i-th oldest trace.
func (r *Recorder) slot(i int) int { return (r.head + i) % len(r.ring) }

// Record finalizes t into the ring and folds every span's duration into
// its phase histogram. Call once, after the job reached a terminal state
// and all spans have ended.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	v := t.View()
	r.mu.Lock()
	if old, ok := r.byJob[v.JobID]; ok {
		// A replayed job id re-traced after a restart: the old trace
		// leaves, and the newer ones close the gap.
		for i := 0; i < r.n; i++ {
			if r.ring[r.slot(i)] == old {
				for ; i+1 < r.n; i++ {
					r.ring[r.slot(i)] = r.ring[r.slot(i+1)]
				}
				r.ring[r.slot(i)] = nil
				r.n--
				break
			}
		}
	}
	if r.n == len(r.ring) {
		old := r.ring[r.head]
		r.ring[r.head] = nil
		r.head = r.slot(1)
		r.n--
		r.evicted.Inc()
		if r.byJob[old.JobID] == old {
			delete(r.byJob, old.JobID)
		}
	}
	r.ring[r.slot(r.n)] = v
	r.n++
	r.byJob[v.JobID] = v
	r.mu.Unlock()
	r.recorded.Inc()
	var walk func(list []*SpanView)
	walk = func(list []*SpanView) {
		for _, s := range list {
			r.phases.With(s.Name).Observe(time.Duration(math.Round(s.DurationMS * 1e6)))
			walk(s.Children)
		}
	}
	walk(v.Spans)
}

// kept is the number of traces the ring holds.
func (r *Recorder) kept() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.n)
}

// Trace returns the completed trace for one job id, if still in the ring.
func (r *Recorder) Trace(jobID string) (*TraceView, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byJob[jobID]
	return v, ok
}

// Recent returns up to n completed traces, newest first (all of them when
// n <= 0).
func (r *Recorder) Recent(n int) []*TraceView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*TraceView, 0, n)
	for i := r.n - 1; i >= r.n-n; i-- {
		out = append(out, r.ring[r.slot(i)])
	}
	return out
}
