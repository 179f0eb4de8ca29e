// Package faultinject is the repo's fault-injection harness: deterministic,
// seeded wrappers that make the failure paths of the storage and solving
// layers testable on a healthy machine.
//
// Two injection points cover the failure modes the service hardens against:
//
//   - FS wraps a store.FS and injects errors, extra latency, and partial
//     (torn) writes into the store's file operations — the inputs to the
//     store's torn-tail recovery and the service's degraded memory-only
//     mode.
//   - Panics (in solve.go) decorates a service.SolveFunc with injected
//     panics, the input to the service's per-job panic isolation.
//
// All injection is driven by a seeded math/rand source plus deterministic
// every-Nth counters, so a failing chaos run reproduces from its seed. An
// injector is Armed by default and can be disarmed (and re-armed) at
// runtime, which is how recovery drills simulate a disk that heals.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// ErrInjected is the error every injected fault returns, wrapped with the
// operation it hit. Tests match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Config tunes an FS. The zero value injects nothing.
type Config struct {
	// Seed drives the probabilistic decisions; runs with the same seed and
	// operation sequence inject identically.
	Seed int64
	// FailEvery injects an error on every Nth intercepted operation
	// (0 = disabled). Counted across Write/Sync/Truncate — the mutating
	// ops whose failure the store must degrade around.
	FailEvery int64
	// FailRate injects an error on each intercepted operation with this
	// probability (0 = disabled). Composes with FailEvery.
	FailRate float64
	// PartialWrites makes an injected Write fault tear the write: about
	// half the buffer reaches the file before the error returns, the torn
	// bytes left for the store's CRC recovery to cut off.
	PartialWrites bool
	// Latency is added to every intercepted operation, injected faults or
	// not (0 = none) — the slow-disk half of the harness.
	Latency time.Duration
}

// FS wraps an inner store.FS (the real filesystem when nil) and injects
// faults per its Config. Safe for concurrent use; plug it into
// store.Options.FS.
type FS struct {
	inner store.FS
	cfg   Config

	armed atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand
	ops int64 // intercepted operations, for FailEvery

	injected atomic.Int64
}

// NewFS builds a fault-injecting filesystem over inner (nil = the real
// one). The injector starts armed.
func NewFS(inner store.FS, cfg Config) *FS {
	if inner == nil {
		inner = store.OSFS{}
	}
	f := &FS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	f.armed.Store(true)
	return f
}

// Arm (re-)enables injection.
func (f *FS) Arm() { f.armed.Store(true) }

// Disarm stops injecting; operations pass through untouched. The
// every-Nth counter and rng state are kept, so re-arming resumes the
// deterministic schedule.
func (f *FS) Disarm() { f.armed.Store(false) }

// Injected reports how many faults have been injected so far.
func (f *FS) Injected() int64 { return f.injected.Load() }

// inject decides one operation's fate: nil, or a wrapped ErrInjected.
func (f *FS) inject(op string) error {
	if !f.armed.Load() {
		return nil
	}
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
	f.mu.Lock()
	f.ops++
	hit := (f.cfg.FailEvery > 0 && f.ops%f.cfg.FailEvery == 0) ||
		(f.cfg.FailRate > 0 && f.rng.Float64() < f.cfg.FailRate)
	f.mu.Unlock()
	if !hit {
		return nil
	}
	f.injected.Add(1)
	return fmt.Errorf("%w (%s)", ErrInjected, op)
}

// OpenFile implements store.FS. Opens pass through; the returned file
// injects faults into its own mutating operations.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: inner, fs: f, name: name}, nil
}

// ReadFile implements store.FS (reads pass through: the harness targets
// the write path, where degraded mode is decided).
func (f *FS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Rename implements store.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.inject("rename " + newpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements store.FS (passes through so recovery can always clean
// up rotated segments).
func (f *FS) Remove(name string) error { return f.inner.Remove(name) }

// Stat implements store.FS.
func (f *FS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

// file intercepts the mutating operations of one open file.
type file struct {
	store.File
	fs   *FS
	name string
}

// Write injects errors and, under Config.PartialWrites, torn writes: half
// the buffer lands before the error surfaces, the residue a crash would
// leave mid-append.
func (w *file) Write(p []byte) (int, error) {
	if err := w.fs.inject("write " + w.name); err != nil {
		if w.fs.cfg.PartialWrites && len(p) > 1 {
			n, werr := w.File.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return w.File.Write(p)
}

// Sync injects errors into fsync.
func (w *file) Sync() error {
	if err := w.fs.inject("sync " + w.name); err != nil {
		return err
	}
	return w.File.Sync()
}

// Truncate injects errors into truncation (the store's torn-tail repair
// path, so even the repair of an injected fault can be made to fail).
func (w *file) Truncate(size int64) error {
	if err := w.fs.inject("truncate " + w.name); err != nil {
		return err
	}
	return w.File.Truncate(size)
}
