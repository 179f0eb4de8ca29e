package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a daemon's metrics. Each is declared once, in the package
// that updates it, with its Prometheus family name, its /v1/stats key and
// its help text, and the registry renders both surfaces in declaration
// order: WritePrometheus the text exposition format (version 0.0.4),
// Snapshot the JSON object. A key ending in ",omitempty" leaves a zero or
// empty value out of the JSON, as the struct tag does; an empty key leaves
// the metric out of it.
type Registry struct {
	prefix string
	mu     sync.Mutex
	names  []string
	writes []func(io.Writer)
	stats  []stat
}

type stat struct {
	key       string
	omitEmpty bool
	read      func() any
}

// NewRegistry returns an empty registry whose family names start with
// prefix.
func NewRegistry(prefix string) *Registry { return &Registry{prefix: prefix} }

// family declares the families that write renders.
func (r *Registry) family(names []string, write func(w io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names = append(r.names, names...)
	r.writes = append(r.writes, write)
}

// stat declares a /v1/stats key, unless key is empty.
func (r *Registry) stat(key string, read func() any) {
	if key == "" {
		return
	}
	name, opt, _ := strings.Cut(key, ",")
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = append(r.stats, stat{name, opt == "omitempty", read})
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// single declares a family of one unlabelled sample.
func (r *Registry) single(name, key, help, typ string, value func() int64, read func() any) {
	name = r.prefix + name
	r.family([]string{name}, func(w io.Writer) {
		header(w, name, help, typ)
		fmt.Fprintf(w, "%s %d\n", name, value())
	})
	r.stat(key, read)
}

// Counter is a count updated by one atomic add.
type Counter struct{ v atomic.Int64 }

// Add adds n to the count.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds 1 to the count.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Counter declares a counter.
func (r *Registry) Counter(name, key, help string) *Counter {
	c := new(Counter)
	r.single(name, key, help, "counter", c.Load, func() any { return c.Load() })
	return c
}

// Gauge declares a gauge whose value read returns at scrape time.
func (r *Registry) Gauge(name, key, help string, read func() int64) {
	r.single(name, key, help, "gauge", read, func() any { return read() })
}

// Flag declares a 0/1 gauge that /v1/stats renders as a boolean.
func (r *Registry) Flag(name, key, help string, read func() bool) {
	value := func() int64 {
		if read() {
			return 1
		}
		return 0
	}
	r.single(name, key, help, "gauge", value, func() any { return read() })
}

// Series is one series of a Counters family: its label value and its own
// /v1/stats key.
type Series struct{ Label, Key string }

// Counters declares a counter family with one series per label value, in
// the given order, and returns the counters by label value.
func (r *Registry) Counters(name, help, label string, series ...Series) map[string]*Counter {
	name = r.prefix + name
	byLabel := make(map[string]*Counter, len(series))
	for _, s := range series {
		c := new(Counter)
		byLabel[s.Label] = c
		r.stat(s.Key, func() any { return c.Load() })
	}
	r.family([]string{name}, func(w io.Writer) {
		header(w, name, help, "counter")
		for _, s := range series {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, s.Label, byLabel[s.Label].Load())
		}
	})
	return byLabel
}

// Column is one family of a Table: its name, its field in the rows of the
// JSON, its help text, and whether it is a gauge rather than a counter.
type Column struct {
	Name, Field, Help string
	Gauge             bool
}

// Row is a Table's label value and its value for each column.
type Row struct {
	Label  string
	Values []int64
}

// Table declares families that share one label, with rows read at scrape
// time. /metrics renders each column as a family with a series per row,
// sorted by label; /v1/stats renders key as an object that maps each
// label to the row's fields. A labelled family always has its HELP and
// TYPE lines; an unlabelled table has at most one row, and its families
// are absent while it has none.
func (r *Registry) Table(key, label string, cols []Column, rows func() []Row) {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = r.prefix + c.Name
	}
	r.family(names, func(w io.Writer) {
		rs := rows()
		if label == "" && len(rs) == 0 {
			return
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Label < rs[j].Label })
		for i, c := range cols {
			typ := "counter"
			if c.Gauge {
				typ = "gauge"
			}
			header(w, names[i], c.Help, typ)
			for _, row := range rs {
				series := names[i]
				if label != "" {
					series += fmt.Sprintf("{%s=%q}", label, row.Label)
				}
				fmt.Fprintf(w, "%s %d\n", series, row.Values[i])
			}
		}
	})
	r.stat(key, func() any {
		t := make(map[string]map[string]int64)
		for _, row := range rows() {
			t[row.Label] = make(map[string]int64, len(cols))
			for i, c := range cols {
				t[row.Label][c.Field] = row.Values[i]
			}
		}
		return t
	})
}

// Value declares a /v1/stats key without a family, whose value read
// returns at snapshot time (nil for none).
func (r *Registry) Value(key string, read func() any) { r.stat(key, read) }

// Histogram counts durations into fixed buckets with two atomic adds and
// no lock: one into the first bucket whose bound is at least the duration
// (the +Inf bucket past the last bound), one into the sum.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is a histogram in the units /v1/stats reports: the
// number of observations, their sum in milliseconds, and the buckets.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	SumMS   float64  `json:"sum_ms"`
	Buckets []Bucket `json:"buckets"`
}

// Bucket counts the observations of at most LEms milliseconds that no
// earlier bucket counts; LEms is -1 for +Inf.
type Bucket struct {
	LEms  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// Snapshot returns the histogram's state; Count sums the buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{SumMS: float64(h.sum.Load()) / 1e6, Buckets: make([]Bucket, len(h.counts))}
	for i := range h.counts {
		s.Buckets[i] = Bucket{LEms: -1, Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			s.Buckets[i].LEms = float64(h.bounds[i]) / 1e6
		}
		s.Count += s.Buckets[i].Count
	}
	return s
}

// write renders the histogram in seconds with cumulative buckets; labels
// is a rendered label pair or "".
func (h *Histogram) write(w io.Writer, name, labels string) {
	sel, sep := "", ""
	if labels != "" {
		sel, sep = "{"+labels+"}", ","
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i].Seconds(), 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, sel, time.Duration(h.sum.Load()).Seconds(), name, sel, cum)
}

func newHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Histogram declares a histogram with the given bucket bounds.
func (r *Registry) Histogram(name, key, help string, bounds []time.Duration) *Histogram {
	h := newHistogram(bounds)
	name = r.prefix + name
	r.family([]string{name}, func(w io.Writer) {
		header(w, name, help, "histogram")
		h.write(w, name, "")
	})
	r.stat(key, func() any { return h.Snapshot() })
	return h
}

// HistogramVec is a family of histograms told apart by one label; each is
// made at its label value's first use.
type HistogramVec struct {
	bounds []time.Duration
	mu     sync.Mutex
	by     map[string]*Histogram
}

// With returns the histogram of one label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.by[value]
	if h == nil {
		h = newHistogram(v.bounds)
		v.by[value] = h
	}
	return h
}

// HistogramVec declares a labelled histogram family, which has no
// /v1/stats key.
func (r *Registry) HistogramVec(name, help, label string, bounds []time.Duration) *HistogramVec {
	v := &HistogramVec{bounds: bounds, by: make(map[string]*Histogram)}
	name = r.prefix + name
	r.family([]string{name}, func(w io.Writer) {
		header(w, name, help, "histogram")
		v.mu.Lock()
		values := make([]string, 0, len(v.by))
		for value := range v.by {
			values = append(values, value)
		}
		v.mu.Unlock()
		sort.Strings(values)
		for _, value := range values {
			v.With(value).write(w, name, fmt.Sprintf("%s=%q", label, value))
		}
	})
	return v
}

// WritePrometheus renders every family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	writes := r.writes
	r.mu.Unlock()
	for _, write := range writes {
		write(w)
	}
}

// Names lists the declared family names, prefix included, and /v1/stats
// keys.
func (r *Registry) Names() (families, keys []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.stats {
		keys = append(keys, s.key)
	}
	return append([]string(nil), r.names...), keys
}

// Snapshot reads every /v1/stats value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{stats: r.stats, vals: make(map[string]any, len(r.stats))}
	r.mu.Unlock()
	for _, st := range s.stats {
		s.vals[st.key] = st.read()
	}
	return s
}

// Snapshot is a registry's /v1/stats values at one moment, and marshals to
// the /v1/stats object. Its accessors panic on a key that was never
// declared, or on a value of another kind, so a mistyped key fails loudly
// instead of reading as zero.
type Snapshot struct {
	stats []stat
	vals  map[string]any
}

// Value returns a key's value as the JSON renders it: an int64, a bool, a
// Table's map of rows, a HistogramSnapshot, or what a Value returned.
func (s Snapshot) Value(key string) any {
	v, ok := s.vals[key]
	if !ok {
		panic(fmt.Sprintf("obs: no /v1/stats key %q", key))
	}
	return v
}

// Int returns a counter's or a gauge's value.
func (s Snapshot) Int(key string) int64 { return s.Value(key).(int64) }

// Bool returns a flag's value.
func (s Snapshot) Bool(key string) bool { return s.Value(key).(bool) }

// Table returns a table's rows: field values by label value.
func (s Snapshot) Table(key string) map[string]map[string]int64 {
	return s.Value(key).(map[string]map[string]int64)
}

// MarshalJSON renders the /v1/stats object.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for _, st := range s.stats {
		v := s.vals[st.key]
		if t, ok := v.(map[string]map[string]int64); st.omitEmpty && (v == nil || v == int64(0) || ok && len(t) == 0) {
			continue
		}
		val, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%q:%s", st.key, val)
	}
	return append(b, '}'), nil
}
