package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// JournalEntry is one accepted submission as the durable job journal
// records it: everything needed to reconstruct and re-run the job after a
// crash — the graph itself (vertex count + edge list), the spec, the
// tenant, and the original submission time and absolute deadline so
// replayed jobs keep their queue seniority and expire exactly when the
// original would have.
type JournalEntry struct {
	ID     string         `json:"id"`
	Tenant string         `json:"tenant,omitempty"`
	Name   string         `json:"name,omitempty"`
	N      int            `json:"n"`
	Edges  graph.EdgeList `json:"edges,omitempty"`
	Spec   JobSpec        `json:"spec"`
	// Submitted is the original wall-clock submission time; replay
	// schedules the job as if it were still waiting since then.
	Submitted time.Time `json:"submitted"`
	// Deadline is the absolute end-to-end deadline (zero = none). A
	// replayed entry already past it finishes as StateExpired without
	// running a solver.
	Deadline time.Time `json:"deadline,omitempty"`
}

// Graph reconstructs the submitted graph; an entry whose edges do not fit
// its vertex count (a damaged record) is an error.
func (e *JournalEntry) Graph() (*graph.Graph, error) {
	return graph.FromEdges(e.Name, e.N, e.Edges)
}

// Journal is the durable job log under the service: accepted submissions
// are recorded before Submit returns and marked done when they reach a
// terminal state, so a restarted service can Replay the jobs a crash
// interrupted. Implementations must be safe for concurrent use and must
// degrade rather than fail: a journal whose disk is misbehaving keeps
// accepting writes in memory (reported via Health) instead of failing
// submissions.
type Journal interface {
	// Record durably logs one accepted submission.
	Record(e JournalEntry) error
	// Done marks the job as terminal; it will not be replayed again.
	Done(id string) error
	// Replay returns every entry not yet marked done, oldest first. The
	// service calls it once at startup.
	Replay() ([]JournalEntry, error)
	// Pending reports the number of entries not yet marked done.
	Pending() int
	// Health reports the journal's degraded-mode state.
	Health() Health
	// Close releases the journal's resources.
	Close() error
}

// DiskJournal is the Journal over an internal/store snapshot+WAL log (one
// record per live job, deleted on completion via the store's V3 delete
// records). A failing disk never fails a submission: the first write error
// flips the journal into a memory-only degraded mode — entries and
// completions accumulate in memory and reopen attempts run in the
// background with exponential backoff — and a successful reopen flushes
// the accumulated state back to disk. Entries recorded during a degraded
// spell are lost if the process dies before the disk heals; that is the
// mode's documented cost, and Health surfaces it.
type DiskJournal struct {
	dir    string
	opts   store.Options
	logger *slog.Logger

	// baseBackoff/maxBackoff bound the reopen schedule (defaults 1s/30s;
	// tests shrink them).
	baseBackoff time.Duration
	maxBackoff  time.Duration

	mu sync.Mutex
	st *store.Store // nil while degraded
	// While degraded, pendingRec holds the entries recorded since and
	// pendingDone the ids whose records may be on disk and must be deleted
	// when it heals: jobs recorded before the spell that finished during
	// it, and the entry whose failed write began it. A job recorded and
	// finished within the spell leaves neither.
	pendingRec  map[string][]byte
	pendingDone map[string]bool
	h           Health
	backoff     time.Duration
	timer       *time.Timer
	closed      bool
}

// OpenDiskJournal opens (or creates) a disk journal rooted at dir. logger
// receives degradation and recovery records (nil = silent).
func OpenDiskJournal(dir string, opts store.Options, logger *slog.Logger) (*DiskJournal, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &DiskJournal{
		dir: dir, opts: opts, logger: logger,
		baseBackoff: time.Second, maxBackoff: 30 * time.Second,
		st:          st,
		pendingRec:  make(map[string][]byte),
		pendingDone: make(map[string]bool),
	}, nil
}

// Record implements Journal. Write failures flip the journal into
// degraded mode instead of surfacing: the submission proceeds, merely
// without crash durability for the degraded spell.
func (j *DiskJournal) Record(e JournalEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.st == nil {
		j.pendingRec[e.ID] = raw
		j.h.Errors++
		return nil
	}
	if err := j.st.Put(e.ID, raw); err != nil {
		j.enterDegradedLocked(err)
		j.pendingRec[e.ID] = raw
		j.pendingDone[e.ID] = true // the failed write may have reached the disk
		j.h.Errors++
	}
	return nil
}

// Done implements Journal.
func (j *DiskJournal) Done(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.st == nil {
		if _, inSpell := j.pendingRec[id]; inSpell {
			delete(j.pendingRec, id)
		} else {
			j.pendingDone[id] = true
		}
		return nil
	}
	if err := j.st.Delete(id); err != nil {
		j.enterDegradedLocked(err)
		j.pendingDone[id] = true
		j.h.Errors++
	}
	return nil
}

// Replay implements Journal, returning pending entries oldest-first
// (submission time, then id, so replay order is deterministic).
func (j *DiskJournal) Replay() ([]JournalEntry, error) {
	j.mu.Lock()
	st := j.st
	j.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("journal: store degraded, nothing to replay")
	}
	var entries []JournalEntry
	var malformed int
	st.Range(func(key string, val []byte) bool {
		var e JournalEntry
		if err := json.Unmarshal(val, &e); err != nil || e.ID == "" {
			malformed++
			return true
		}
		entries = append(entries, e)
		return true
	})
	if malformed > 0 {
		j.logger.Warn("journal replay skipped malformed entries", "count", malformed)
	}
	sort.Slice(entries, func(a, b int) bool {
		if !entries[a].Submitted.Equal(entries[b].Submitted) {
			return entries[a].Submitted.Before(entries[b].Submitted)
		}
		return entries[a].ID < entries[b].ID
	})
	return entries, nil
}

// Pending implements Journal.
func (j *DiskJournal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st == nil {
		return len(j.pendingRec)
	}
	return j.st.Len() + len(j.pendingRec)
}

// Health implements Journal.
func (j *DiskJournal) Health() Health {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.h
}

// Close implements Journal.
func (j *DiskJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.timer != nil {
		j.timer.Stop()
	}
	if j.st != nil {
		err := j.st.Close()
		j.st = nil
		return err
	}
	return nil
}

// enterDegradedLocked drops the broken store and starts the reopen loop.
// Caller holds j.mu.
func (j *DiskJournal) enterDegradedLocked(err error) {
	if j.st == nil {
		return
	}
	j.h.Degraded = true
	j.h.DegradedSince = time.Now()
	j.h.Flips++
	st := j.st
	j.st = nil
	// Close in the background: Close waits for in-flight compaction, and
	// the submit path must not.
	go st.Close()
	j.backoff = j.baseBackoff
	j.logger.Error("job journal degraded to memory-only", "dir", j.dir, "err", err)
	j.scheduleReopenLocked()
}

// scheduleReopenLocked arms the next reopen attempt. Caller holds j.mu.
func (j *DiskJournal) scheduleReopenLocked() {
	if j.closed {
		return
	}
	j.timer = time.AfterFunc(j.backoff, j.tryReopen)
}

// tryReopen attempts to reopen the store and flush the memory-only
// backlog; on failure the backoff doubles (capped) and the loop re-arms.
func (j *DiskJournal) tryReopen() {
	j.mu.Lock()
	if j.closed || j.st != nil {
		j.mu.Unlock()
		return
	}
	j.h.ReopenAttempts++
	j.mu.Unlock()

	st, err := store.Open(j.dir, j.opts)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.st != nil {
		if err == nil {
			go st.Close()
		}
		return
	}
	if err == nil {
		// Apply the backlog: completions first (a done job's record must
		// not survive), then the entries still live.
		for id := range j.pendingDone {
			if err == nil {
				err = st.Delete(id)
			}
		}
		for id, raw := range j.pendingRec {
			if err == nil {
				err = st.Put(id, raw)
			}
		}
		if err != nil {
			go st.Close()
		}
	}
	if err != nil {
		j.backoff *= 2
		if j.backoff > j.maxBackoff {
			j.backoff = j.maxBackoff
		}
		j.logger.Warn("job journal reopen failed", "dir", j.dir, "err", err,
			"attempt", j.h.ReopenAttempts, "next_try_in", j.backoff)
		j.scheduleReopenLocked()
		return
	}
	j.st = st
	j.pendingRec = make(map[string][]byte)
	j.pendingDone = make(map[string]bool)
	j.h.Degraded = false
	j.logger.Info("job journal recovered", "dir", j.dir,
		"attempts", j.h.ReopenAttempts, "entries", st.Len())
}

// journalEntryFor captures a job for the journal.
func journalEntryFor(j *job) JournalEntry {
	return JournalEntry{
		ID:        j.id,
		Tenant:    j.tenant,
		Name:      j.g.Name(),
		N:         j.g.N(),
		Edges:     j.g.Edges(),
		Spec:      j.spec,
		Submitted: j.submitted,
		Deadline:  j.deadlineAt,
	}
}
