package service

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/pbsolver"
	"repro/internal/store"
)

// CacheRecord is one definitive solve result in canonical vertex space —
// the unit the result cache stores, shares between isomorphic submissions,
// and (with a disk backend) persists across restarts. Only definitive
// outcomes (optimum proven, or χ > K proven) become records, which is what
// makes them safely reusable under any knob settings (the knobs steer the
// search, never the answer).
type CacheRecord struct {
	// Status is pbsolver.StatusOptimal or pbsolver.StatusUnsat.
	Status pbsolver.Status `json:"status"`
	// Chi is the proven chromatic number within K (0 for UNSAT records).
	Chi int `json:"chi"`
	// CanonColoring is the witness coloring indexed by canonical vertex
	// position; each submission translates it through its own canonical
	// permutation.
	CanonColoring []int `json:"coloring,omitempty"`
	// Winner names the engine that produced the result ("" if unknown).
	Winner string `json:"winner,omitempty"`
	// Runtime and Conflicts are the original solve's, reported verbatim
	// to every cache hit. Records persisted with the deleted knob counters
	// ("chrono_backtracks", "vivified_lits", "lbd_updates") still decode:
	// encoding/json ignores the unknown keys.
	Runtime   time.Duration `json:"runtime"`
	Conflicts int64         `json:"conflicts"`
}

// Backend is the pluggable storage layer under the canonical result cache:
// a key/value map from cache keys (spec + canonical-form hash, see
// cacheKey) to definitive records. Implementations must be safe for
// concurrent use. The in-memory backend is the default; DiskBackend makes
// the cache survive restarts. Lookup misses are cheap — the worst case is
// one redundant solve — so backends may evict freely.
type Backend interface {
	// Get returns the record stored under key.
	Get(key string) (CacheRecord, bool)
	// Put stores the record under key, superseding any previous record.
	Put(key string, rec CacheRecord) error
	// Len reports the number of stored records.
	Len() int
	// Close releases the backend's resources. The Service closes the
	// backend it was configured with during Service.Close.
	Close() error
}

// MemoryBackend is the default cache backend: an in-process map with FIFO
// eviction beyond its capacity. It does not survive restarts.
type MemoryBackend struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]CacheRecord
	order    []string // insertion order, for eviction
}

// NewMemoryBackend builds a memory backend holding at most capacity
// records (≤ 0 selects 4096).
func NewMemoryBackend(capacity int) *MemoryBackend {
	if capacity <= 0 {
		capacity = 4096
	}
	return &MemoryBackend{capacity: capacity, entries: make(map[string]CacheRecord)}
}

// Get implements Backend.
func (b *MemoryBackend) Get(key string) (CacheRecord, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.entries[key]
	return rec, ok
}

// Put implements Backend.
func (b *MemoryBackend) Put(key string, rec CacheRecord) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, exists := b.entries[key]; !exists {
		b.order = append(b.order, key)
	}
	b.entries[key] = rec
	for len(b.entries) > b.capacity && len(b.order) > 0 {
		old := b.order[0]
		b.order = b.order[1:]
		delete(b.entries, old)
	}
	return nil
}

// Len implements Backend.
func (b *MemoryBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Range calls fn for every record until fn returns false, iterating a
// point-in-time copy in unspecified order.
func (b *MemoryBackend) Range(fn func(key string, rec CacheRecord) bool) {
	b.mu.Lock()
	keys := make([]string, 0, len(b.entries))
	recs := make([]CacheRecord, 0, len(b.entries))
	for k, r := range b.entries {
		keys = append(keys, k)
		recs = append(recs, r)
	}
	b.mu.Unlock()
	for i := range keys {
		if !fn(keys[i], recs[i]) {
			return
		}
	}
}

// Close implements Backend (a no-op for the memory backend).
func (b *MemoryBackend) Close() error { return nil }

// DiskBackend persists cache records through an internal/store snapshot+WAL
// log, so a restarted service answers isomorphic resubmissions of anything
// it ever solved without running a solver. Records are stored as JSON
// values under the cache key; records that fail to decode (foreign format,
// partial corruption the CRC happened to miss) degrade to cache misses.
type DiskBackend struct {
	st *store.Store
}

// NewDiskBackend wraps an open store. The backend assumes ownership: its
// Close closes the store.
func NewDiskBackend(st *store.Store) *DiskBackend { return &DiskBackend{st: st} }

// OpenDiskBackend opens (or creates) a disk backend rooted at dir with
// default store options (no TTL, unbounded size).
func OpenDiskBackend(dir string) (*DiskBackend, error) {
	return OpenDiskBackendOptions(dir, store.Options{})
}

// OpenDiskBackendOptions opens (or creates) a disk backend rooted at dir
// with explicit store options — in particular the MaxAge/MaxBytes GC
// policy that keeps a long-lived cache directory from growing without
// bound (the gcolord -store.maxage / -store.maxbytes flags).
func OpenDiskBackendOptions(dir string, opts store.Options) (*DiskBackend, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return NewDiskBackend(st), nil
}

// Get implements Backend.
func (b *DiskBackend) Get(key string) (CacheRecord, bool) {
	raw, ok := b.st.Get(key)
	if !ok {
		return CacheRecord{}, false
	}
	var rec CacheRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return CacheRecord{}, false
	}
	return rec, true
}

// Put implements Backend.
func (b *DiskBackend) Put(key string, rec CacheRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return b.st.Put(key, raw)
}

// Len implements Backend.
func (b *DiskBackend) Len() int { return b.st.Len() }

// StoreStats implements StoreStatser.
func (b *DiskBackend) StoreStats() (store.Stats, bool) { return b.st.Stats(), true }

// Close implements Backend, closing the underlying store.
func (b *DiskBackend) Close() error { return b.st.Close() }
