package service

import (
	"fmt"

	"repro/internal/autom"
	"repro/internal/graph"
)

// cacheKey derives the result-cache key: the job spec (everything that
// changes the answer or its provenance) plus the canonical-form hash.
// Equal canonical encodings imply isomorphic graphs even when the
// canonical search was truncated, so keying on the hash is always sound;
// truncation only costs dedup opportunities. Timeout, the admission
// fields (Priority, Deadline) and the search knobs of core.Knobs are
// deliberately left out: they change how fast a definitive answer is
// reached, never which answer, so differently tuned submissions safely
// share entries. The same key addresses both the
// in-flight singleflight table and the durable Backend, so its format is
// part of the on-disk store contract (see docs/API.md).
//
// The leading version token tracks the canonical encoding's byte layout:
// v2 switched the adjacency bitmap to column-major bit order (the layout
// the orbit-pruned search's prefix comparison requires). The same bytes
// read under two layouts are two graphs, so a v1 disk entry must never
// match a v2 key; it simply misses, re-solves and ages out through store
// GC. A change of canonical labeling (a new refinement split order, say)
// keeps the token: equal bytes still decode to one graph, and a record's
// coloring lives in the vertex space of its own bytes, so a graph whose
// bytes changed misses once and re-solves.
func cacheKey(spec JobSpec, canon *autom.Canonical) string {
	return fmt.Sprintf("v2 k=%d sbp=%d eng=%d pf=%t id=%t %x",
		spec.K, spec.SBP, spec.Engine, spec.Portfolio, spec.InstanceDependent,
		canon.Hash)
}

// entry is one singleflight slot in the in-flight table: the first job to
// claim a key solves and publishes; concurrent isomorphic jobs wait on
// done. Completed results do not live here — they move to the Backend the
// moment they are published.
type entry struct {
	done chan struct{}

	// rec and ok are written once before done is closed.
	rec CacheRecord
	ok  bool
}

func newEntry() *entry { return &entry{done: make(chan struct{})} }

// publishRecord hands the leader's definitive result to every waiter.
func (e *entry) publishRecord(rec CacheRecord) {
	e.rec = rec
	e.ok = true
	close(e.done)
}

// publishNone wakes the waiters with no result (the leader's solve was not
// definitive); each waiter then solves on its own.
func (e *entry) publishNone() { close(e.done) }

// materialize translates the published record into the given graph's own
// numbering; nil when no definitive result was published.
func (e *entry) materialize(g *graph.Graph, canon *autom.Canonical) *Result {
	if !e.ok {
		return nil
	}
	return materializeRecord(e.rec, g, canon)
}

// recordFromResult converts a definitive job result into a cache record
// in the canonical vertex space of canon. Every field, Winner included,
// is the result's own, so a later hit reports what the solve reported.
func recordFromResult(res *Result, canon *autom.Canonical) CacheRecord {
	rec := CacheRecord{
		Status:    res.Status,
		Chi:       res.Chi,
		Winner:    res.Winner,
		Runtime:   res.Runtime,
		Conflicts: res.Conflicts,
	}
	if res.Coloring != nil {
		rec.CanonColoring = make([]int, len(res.Coloring))
		for v, c := range res.Coloring {
			rec.CanonColoring[canon.Perm[v]] = c
		}
	}
	return rec
}

// materializeRecord translates a cached canonical-space record into the
// given graph's own numbering. It returns nil when the record cannot serve
// this job — the coloring's length does not match or the translated
// coloring fails the (defensive) propriety check, e.g. a stale or
// hash-colliding disk record — in which case the caller solves directly.
func materializeRecord(rec CacheRecord, g *graph.Graph, canon *autom.Canonical) *Result {
	res := &Result{
		Status:     rec.Status,
		Solved:     true,
		Chi:        rec.Chi,
		Winner:     rec.Winner,
		Runtime:    rec.Runtime,
		Conflicts:  rec.Conflicts,
		CacheHit:   true,
		CanonExact: canon.Exact,
	}
	if rec.CanonColoring != nil {
		if len(rec.CanonColoring) != g.N() {
			return nil
		}
		col := make([]int, g.N())
		for v := range col {
			col[v] = rec.CanonColoring[canon.Perm[v]]
		}
		if !g.IsProperColoring(col) {
			return nil
		}
		res.Coloring = col
	}
	return res
}
