package service

import (
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/store"
)

// Health describes the degraded-mode state of a disk-backed component (the
// result-cache backend or the job journal). The zero value means healthy.
type Health struct {
	// Degraded reports whether the component is currently running
	// memory-only because its disk writes failed.
	Degraded bool `json:"degraded"`
	// DegradedSince is when the current (or most recent) degraded spell
	// began.
	DegradedSince time.Time `json:"degraded_since,omitempty"`
	// Flips counts healthy→degraded transitions over the component's
	// lifetime.
	Flips int64 `json:"flips"`
	// ReopenAttempts counts background attempts to reattach the disk.
	ReopenAttempts int64 `json:"reopen_attempts"`
	// Errors counts writes that failed or were diverted to memory.
	Errors int64 `json:"errors"`
}

// HealthReporter is implemented by components that can degrade
// (ResilientBackend, DiskJournal). The service reports their Health in
// /v1/stats and /metrics.
type HealthReporter interface {
	Health() Health
}

// StoreStatser is implemented by backends with a persistent store
// currently attached. The second return is false while no store is
// attached (memory backend, or a resilient backend mid-degradation).
type StoreStatser interface {
	StoreStats() (store.Stats, bool)
}

// ResilientBackend wraps a primary (disk) Backend so that storage failures
// degrade the result cache to memory-only instead of surfacing: the first
// failed Put closes the primary, diverts writes into an in-process
// fallback, and starts background reopen attempts with exponential
// backoff. A successful reopen flushes the fallback's records into the
// fresh primary and restores normal service. Reads always consult the
// primary first (when attached), then the fallback.
type ResilientBackend struct {
	reopen func() (Backend, error)
	logger *slog.Logger

	// baseBackoff/maxBackoff bound the reopen schedule (defaults 1s/30s;
	// tests shrink them).
	baseBackoff time.Duration
	maxBackoff  time.Duration

	mu       sync.Mutex
	primary  Backend // nil while degraded
	fallback *MemoryBackend
	h        Health
	backoff  time.Duration
	timer    *time.Timer
	closed   bool
}

// NewResilientBackend wraps primary. reopen builds a replacement primary
// during recovery (typically re-running OpenDiskBackendOptions); it must
// not return the broken instance. logger receives degradation and recovery
// records (nil = silent).
func NewResilientBackend(primary Backend, reopen func() (Backend, error), logger *slog.Logger) *ResilientBackend {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &ResilientBackend{
		reopen: reopen, logger: logger,
		baseBackoff: time.Second, maxBackoff: 30 * time.Second,
		primary:  primary,
		fallback: NewMemoryBackend(0),
	}
}

// Get implements Backend.
func (b *ResilientBackend) Get(key string) (CacheRecord, bool) {
	b.mu.Lock()
	p := b.primary
	b.mu.Unlock()
	if p != nil {
		if rec, ok := p.Get(key); ok {
			return rec, ok
		}
	}
	return b.fallback.Get(key)
}

// Put implements Backend. It never returns a disk error: a failed primary
// write flips the backend into degraded mode and the record lands in the
// memory fallback instead.
func (b *ResilientBackend) Put(key string, rec CacheRecord) error {
	b.mu.Lock()
	p := b.primary
	b.mu.Unlock()
	if p != nil {
		err := p.Put(key, rec)
		if err == nil {
			return nil
		}
		b.mu.Lock()
		if b.primary == p {
			b.enterDegradedLocked(err)
		}
		b.h.Errors++
		b.mu.Unlock()
	} else {
		b.mu.Lock()
		b.h.Errors++
		b.mu.Unlock()
	}
	return b.fallback.Put(key, rec)
}

// Len implements Backend.
func (b *ResilientBackend) Len() int {
	b.mu.Lock()
	p := b.primary
	b.mu.Unlock()
	if p != nil {
		return p.Len()
	}
	return b.fallback.Len()
}

// Close implements Backend.
func (b *ResilientBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
	}
	p := b.primary
	b.primary = nil
	b.mu.Unlock()
	if p != nil {
		return p.Close()
	}
	return nil
}

// Health implements HealthReporter.
func (b *ResilientBackend) Health() Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.h
}

// StoreStats implements StoreStatser, delegating to the attached primary.
// Reports false while degraded (no store attached) or when the primary has
// no persistent store.
func (b *ResilientBackend) StoreStats() (store.Stats, bool) {
	b.mu.Lock()
	p := b.primary
	b.mu.Unlock()
	if sp, ok := p.(StoreStatser); ok && p != nil {
		return sp.StoreStats()
	}
	return store.Stats{}, false
}

// enterDegradedLocked detaches the broken primary and starts the reopen
// loop. Caller holds b.mu.
func (b *ResilientBackend) enterDegradedLocked(err error) {
	if b.primary == nil {
		return
	}
	b.h.Degraded = true
	b.h.DegradedSince = time.Now()
	b.h.Flips++
	p := b.primary
	b.primary = nil
	// Close in the background: DiskBackend.Close waits for in-flight
	// compaction, and the solver's result-publish path must not.
	go p.Close()
	b.backoff = b.baseBackoff
	b.logger.Error("result cache degraded to memory-only", "err", err)
	b.scheduleReopenLocked()
}

// scheduleReopenLocked arms the next reopen attempt. Caller holds b.mu.
func (b *ResilientBackend) scheduleReopenLocked() {
	if b.closed || b.reopen == nil {
		return
	}
	b.timer = time.AfterFunc(b.backoff, b.tryReopen)
}

// tryReopen attempts to rebuild the primary and flush the fallback into
// it; on failure the backoff doubles (capped) and the loop re-arms.
func (b *ResilientBackend) tryReopen() {
	b.mu.Lock()
	if b.closed || b.primary != nil {
		b.mu.Unlock()
		return
	}
	b.h.ReopenAttempts++
	b.mu.Unlock()

	nb, err := b.reopen()

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.primary != nil {
		if err == nil {
			go nb.Close()
		}
		return
	}
	if err == nil {
		// Flush the records cached while degraded so they gain durability.
		b.fallback.Range(func(key string, rec CacheRecord) bool {
			err = nb.Put(key, rec)
			return err == nil
		})
		if err != nil {
			go nb.Close()
		}
	}
	if err != nil {
		b.backoff *= 2
		if b.backoff > b.maxBackoff {
			b.backoff = b.maxBackoff
		}
		b.logger.Warn("result cache reopen failed", "err", err,
			"attempt", b.h.ReopenAttempts, "next_try_in", b.backoff)
		b.scheduleReopenLocked()
		return
	}
	flushed := b.fallback.Len()
	b.primary = nb
	b.fallback = NewMemoryBackend(0)
	b.h.Degraded = false
	b.logger.Info("result cache recovered", "attempts", b.h.ReopenAttempts,
		"flushed_records", flushed)
}
