package service

import (
	"fmt"
	"sync"
	"time"
)

// Admission-control reject reasons, the stable machine-readable vocabulary
// shared by AdmissionError, the rejects_total counters, and the HTTP error
// envelope (docs/API.md).
const (
	ReasonQueueFull   = "queue_full"
	ReasonOverQuota   = "tenant_over_quota"
	ReasonInvalidSpec = "invalid_spec"
	ReasonDraining    = "draining"
)

// retryAfterHint is the RetryAfter suggested on queue-full, in-flight
// quota and draining rejections; rate-limit rejections compute the exact
// token-refill wait instead.
const retryAfterHint = time.Second

// AdmissionError is a typed Submit rejection: the service is applying
// backpressure (bounded queue) or enforcing a tenant's quota, and the
// caller should retry after RetryAfter rather than treat the job as
// failed. It matches the ErrQueueFull / ErrOverQuota sentinels through
// errors.Is, so existing callers keep working.
type AdmissionError struct {
	// Reason is ReasonQueueFull or ReasonOverQuota.
	Reason string
	// Tenant is the tenant the rejection applies to.
	Tenant string
	// RetryAfter is the suggested wait before resubmitting. For
	// rate-limit rejections it is exact (the time until the token bucket
	// refills); for queue and in-flight rejections it is a hint.
	RetryAfter time.Duration
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("service: %s (tenant %q, retry after %v)", e.Reason, e.Tenant, e.RetryAfter)
}

// Is matches the package's admission sentinels, so
// errors.Is(err, ErrQueueFull) works on typed rejections.
func (e *AdmissionError) Is(target error) bool {
	switch target {
	case ErrQueueFull:
		return e.Reason == ReasonQueueFull
	case ErrOverQuota:
		return e.Reason == ReasonOverQuota
	case ErrDraining:
		return e.Reason == ReasonDraining
	}
	return false
}

// tenantState is one tenant's admission bookkeeping: a token bucket for
// the accept rate and an in-flight (queued + running) count for the
// concurrency quota. Guarded by Service.mu.
type tenantState struct {
	tokens   float64
	last     time.Time
	inFlight int
	accepts  int64
	rejects  int64
}

// maxTenants bounds the tenant table. X-Tenant names come from clients, so
// without a bound every distinct name would stay in memory and in
// /metrics forever.
const maxTenants = 256

// tenant returns (creating on first use) the named tenant's state. When a
// new tenant would take the table past maxTenants, every idle tenant is
// dropped first. Caller holds s.mu.
func (s *Service) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= maxTenants {
			s.dropIdleTenants(time.Now())
		}
		ts = &tenantState{last: time.Now()}
		if s.cfg.TenantRate > 0 {
			ts.tokens = float64(s.cfg.TenantBurst) // start full
		}
		s.tenants[name] = ts
	}
	return ts
}

// dropIdleTenants forgets every tenant a fresh entry would reproduce: no
// job queued or running and, under a rate limit, a bucket refilled to
// TenantBurst. No admission decision changes; only the dropped tenants'
// counters leave /v1/stats and /metrics. Caller holds s.mu.
func (s *Service) dropIdleTenants(now time.Time) {
	rate, burst := s.cfg.TenantRate, float64(s.cfg.TenantBurst)
	for name, ts := range s.tenants {
		if ts.inFlight == 0 && (rate <= 0 || ts.tokens+now.Sub(ts.last).Seconds()*rate >= burst) {
			delete(s.tenants, name)
		}
	}
}

// takeToken refills the tenant's bucket for the elapsed time and consumes
// one token. When the bucket is empty it returns false and the exact wait
// until the next token. Caller holds s.mu; no-op (always admit) when no
// rate is configured.
func (s *Service) takeToken(ts *tenantState, now time.Time) (bool, time.Duration) {
	rate := s.cfg.TenantRate
	if rate <= 0 {
		return true, 0
	}
	// now is read before the caller takes s.mu, so it may precede a
	// refill another submission (or the entry's creation) already made;
	// time never runs backwards for the bucket.
	if elapsed := now.Sub(ts.last); elapsed > 0 {
		ts.tokens += elapsed.Seconds() * rate
		if burst := float64(s.cfg.TenantBurst); ts.tokens > burst {
			ts.tokens = burst
		}
		ts.last = now
	}
	if ts.tokens < 1 {
		wait := time.Duration((1 - ts.tokens) / rate * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		return false, wait
	}
	ts.tokens--
	return true, 0
}

// pqueue is the admission queue: a blocking priority heap ordered by
// virtual submission time (vtime), ties broken by submission sequence.
// vtime = submitted − Priority·AgingStep, so each priority level is worth
// one aging step of queue seniority: within a class the order is exactly
// FIFO, a higher class overtakes a lower one submitted up to
// Priority·AgingStep earlier, and any waiting job eventually outranks all
// newer arrivals regardless of class — starvation-proof by construction,
// with a totally static key (no rebalancing as time passes).
type pqueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*job
	closed bool
}

func newPQueue() *pqueue {
	q := &pqueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func jobLess(a, b *job) bool {
	if !a.vtime.Equal(b.vtime) {
		return a.vtime.Before(b.vtime)
	}
	return a.seq < b.seq
}

// push enqueues a job and wakes one waiting worker. Push on a closed
// queue is a no-op (the job is dropped; Submit never races Close thanks
// to Service.mu).
func (q *pqueue) push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, j)
	q.up(len(q.items) - 1)
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed and drained;
// the bool is false only in the latter case (mirroring a closed channel).
func (q *pqueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return j, true
}

func (q *pqueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops accepting pushes and lets pops drain the remaining items.
func (q *pqueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *pqueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !jobLess(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *pqueue) down(i int) {
	n := len(q.items)
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && jobLess(q.items[left], q.items[least]) {
			least = left
		}
		if right < n && jobLess(q.items[right], q.items[least]) {
			least = right
		}
		if least == i {
			return
		}
		q.items[i], q.items[least] = q.items[least], q.items[i]
		i = least
	}
}
