// Package obs is the dependency-free tracing layer of the job pipeline:
// spans with ids, parent links, monotonic start/duration, and typed
// attributes, recorded into a per-job Trace and carried across package
// boundaries via context.Context. The service layer opens a Trace per
// accepted job and threads the current span through the solve context;
// every stage below it (core.Solve, the SBP layer, the portfolio, the
// cube-and-conquer pool) calls StartSpan unconditionally — when the
// context carries no span (tracing disabled, or a library caller outside
// the service) every operation is a nil-receiver no-op, so the layer
// costs one context lookup on the cold path and nothing in the solver's
// hot loops.
//
// Completed traces land in a bounded flight recorder (recorder.go), the
// source of GET /v1/jobs/{id}/trace, which also folds every span into a
// per-phase latency histogram. The metrics registry (metrics.go) holds
// those histograms beside every other counter and gauge of the daemon and
// renders them all to /metrics and /v1/stats.
package obs

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// AttrKind discriminates the typed attribute union.
type AttrKind uint8

// Attribute kinds.
const (
	KindString AttrKind = iota
	KindInt
	KindBool
)

// Attr is one typed span attribute. Exactly one value field is
// meaningful, selected by Kind; use the String/Int/Bool constructors.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
	Bool bool
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: KindString, Str: v} }

// Int builds an integer attribute (any integer width, stored as int64).
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, Int: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Kind: KindBool, Bool: v} }

// Value returns the attribute's dynamic value (for serialization).
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.Int
	case KindBool:
		return a.Bool
	default:
		return a.Str
	}
}

// MarshalJSON renders the attribute as {"key": ..., "value": ...}.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}{a.Key, a.Value()})
}

// Span is one timed phase of a job: a name, a parent link, a monotonic
// start (Go's time.Time carries the monotonic reading), a duration set
// by End, and typed attributes. Spans are created through Trace.StartSpan
// or the context-level StartSpan; all methods are safe on a nil receiver,
// which is how disabled tracing costs nothing at every call site.
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string

	// Mutable state below is guarded by tr.mu: parallel conquer workers
	// and portfolio engines end sibling spans concurrently.
	start time.Time
	dur   time.Duration
	ended bool
	attrs []Attr
}

// Name returns the span's phase name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttrs appends attributes to a live span. No-op on nil.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// End closes the span, fixing its duration from the monotonic clock and
// appending any final attributes. Idempotent (the first End wins) and a
// no-op on nil.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = now.Sub(s.start)
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	s.tr.mu.Unlock()
}

// Trace is one job's span collection. Concurrency-safe: spans may be
// started and ended from any goroutine of the job (portfolio engines,
// conquer workers).
type Trace struct {
	id    string
	jobID string

	mu     sync.Mutex
	start  time.Time
	spans  []*Span
	nextID uint64
}

// NewTrace opens a trace. id is the correlation id surfaced in logs and
// the API (the service uses the request id when the client sent one);
// jobID keys the flight recorder's lookup.
func NewTrace(id, jobID string) *Trace {
	return &Trace{id: id, jobID: jobID, start: time.Now()}
}

// ID returns the trace's correlation id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// JobID returns the traced job's id ("" on nil).
func (t *Trace) JobID() string {
	if t == nil {
		return ""
	}
	return t.jobID
}

// StartSpan opens a span under parent (nil parent = a root span) starting
// now. Safe on a nil trace (returns nil).
func (t *Trace) StartSpan(parent *Span, name string, attrs ...Attr) *Span {
	return t.StartSpanAt(parent, name, time.Now(), attrs...)
}

// StartSpanAt opens a span with an explicit start time, for phases whose
// beginning predates the trace machinery (admission timing starts before
// the job id exists). Safe on a nil trace.
func (t *Trace) StartSpanAt(parent *Span, name string, start time.Time, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{tr: t, id: t.nextID, name: name, start: start, attrs: attrs}
	if parent != nil {
		s.parent = parent.id
	}
	if start.Before(t.start) {
		t.start = start
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// PhaseDuration sums the recorded durations of every ended span named
// name (0 when none, or on nil). With the service's taxonomy each
// top-level phase appears once, so this reads as "that phase's latency".
func (t *Trace) PhaseDuration(name string) time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	t.mu.Lock()
	for _, s := range t.spans {
		if s.name == name && s.ended {
			d += s.dur
		}
	}
	t.mu.Unlock()
	return d
}

// --- context plumbing ---

type ctxKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the current span, or nil when ctx carries none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child. When ctx carries no span (tracing disabled)
// it returns (ctx, nil) — and every method of the nil span is a no-op —
// so call sites never need to gate on whether tracing is live.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.StartSpan(parent, name, attrs...)
	return ContextWithSpan(ctx, s), s
}
