package par

import (
	"sync"
	"sync/atomic"

	"repro/internal/cnf"
	"repro/internal/solverutil"
)

// exchangeCapacity is the ring size of a parallel solve's exchange.
const exchangeCapacity = 4096

// Exchange is the lock-light learnt-clause channel between conquer
// workers: a fixed-capacity ring buffer of shared clauses with one global
// sequence counter. Exporting appends one slot under a short mutex hold;
// importing copies the slots published since the importer's private
// cursor, skipping its own. A worker that falls more than a full ring
// behind simply misses the overwritten clauses — sharing improves search,
// it never carries correctness, so dropping is always safe.
//
// Clause payloads are copied on the way in and on the way out: slots are
// overwritten as the ring wraps, and importers hand the clauses to solver
// code that normalizes in place. The ring grows to its capacity as clauses
// arrive, so a solve that exports a few clauses allocates a few slots.
type Exchange struct {
	mu       sync.Mutex
	buf      []slot // grows to capacity, then wraps
	capacity uint64
	seq      uint64 // total clauses ever published

	exported atomic.Int64
	imported atomic.Int64
}

type slot struct {
	src  int
	lbd  int
	lits []cnf.Lit
}

// NewExchange builds an exchange with the given ring capacity, which must
// be positive.
func NewExchange(capacity int) *Exchange {
	return &Exchange{capacity: uint64(capacity)}
}

// Exporter returns the Export hook for worker src: it copies the clause
// and publishes it to every other worker.
func (x *Exchange) Exporter(src int) solverutil.ExportFunc {
	return func(lits []cnf.Lit, lbd int) {
		s := slot{src: src, lbd: lbd, lits: append([]cnf.Lit(nil), lits...)}
		x.mu.Lock()
		if i := x.seq % x.capacity; i < uint64(len(x.buf)) {
			x.buf[i] = s
		} else {
			x.buf = append(x.buf, s)
		}
		x.seq++
		x.mu.Unlock()
		x.exported.Add(1)
	}
}

// Importer returns the Import hook for worker src. The returned function
// is owned by that worker's goroutine (the cursor is captured, unshared)
// and drains every foreign clause published since its previous call that
// still lives in the ring.
func (x *Exchange) Importer(src int) solverutil.ImportFunc {
	var cursor uint64
	return func(buf []solverutil.SharedClause) []solverutil.SharedClause {
		start := len(buf)
		x.mu.Lock()
		lo := cursor
		if x.seq > x.capacity && lo < x.seq-x.capacity {
			lo = x.seq - x.capacity // fell behind a full ring: skip the overwritten part
		}
		for i := lo; i < x.seq; i++ {
			s := x.buf[i%x.capacity]
			if s.src == src {
				continue
			}
			buf = append(buf, solverutil.SharedClause{
				Lits: append([]cnf.Lit(nil), s.lits...),
				LBD:  s.lbd,
			})
		}
		cursor = x.seq
		x.mu.Unlock()
		x.imported.Add(int64(len(buf) - start))
		return buf
	}
}

// Exported returns the total clauses published; Imported the total clause
// copies handed to importers.
func (x *Exchange) Exported() int64 { return x.exported.Load() }
func (x *Exchange) Imported() int64 { return x.imported.Load() }
