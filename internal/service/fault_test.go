package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/solverutil"
	"repro/internal/store"
)

// flakyFS is an in-package stand-in for the faultinject harness (which
// cannot be imported here without a cycle): every file write fails while
// fail is set.
type flakyFS struct {
	store.OSFS
	fail atomic.Bool
}

var errFlaky = errors.New("flaky: injected write failure")

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	inner, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: inner, fs: f}, nil
}

type flakyFile struct {
	store.File
	fs *flakyFS
}

func (w *flakyFile) Write(p []byte) (int, error) {
	if w.fs.fail.Load() {
		return 0, errFlaky
	}
	return w.File.Write(p)
}

// blockingSolve blocks until the job's context is canceled, so tests can
// hold a worker (or a queue) in a known state.
func blockingSolve() SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		<-ctx.Done()
		return core.Outcome{Instance: g.Name()}
	}
}

// TestPanicIsolation: a panicking solve fails its own job — typed error,
// captured stack, panic counter — without disturbing jobs around it.
func TestPanicIsolation(t *testing.T) {
	solve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		if g.Name() == "boom" {
			panic("kaboom")
		}
		col, k := greedyColor(g)
		out := core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
		return out
	}
	svc := New(Config{Workers: 2, Solve: solve})
	defer svc.Close()

	boom := graph.Random("boom", 12, 20, 3)
	fine := graph.Random("fine", 14, 25, 4)
	idBoom, err := svc.Submit(boom, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	idFine, err := svc.Submit(fine, JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	infoBoom, err := svc.Wait(ctx, idBoom)
	if err != nil {
		t.Fatal(err)
	}
	if infoBoom.State != StateFailed.String() {
		t.Fatalf("panicked job state = %q, want failed", infoBoom.State)
	}
	if !strings.Contains(infoBoom.Err, "solver panic") || !strings.Contains(infoBoom.Err, "kaboom") {
		t.Fatalf("panicked job error = %q, want a solver-panic message carrying the panic value", infoBoom.Err)
	}
	if infoBoom.Stack == "" {
		t.Fatal("panicked job carries no stack trace")
	}

	infoFine, err := svc.Wait(ctx, idFine)
	if err != nil {
		t.Fatal(err)
	}
	if infoFine.State != StateDone.String() {
		t.Fatalf("bystander job state = %q, want done", infoFine.State)
	}

	st := svc.Metrics().Snapshot()
	if n := st.Int("panics"); n != 1 {
		t.Fatalf("panics = %d, want 1", n)
	}
	if n := st.Int("failed"); n != 1 {
		t.Fatalf("failed = %d, want 1", n)
	}
}

// TestJournalReplayCompletesJobs: entries left pending in a journal are
// resurrected by a new service under their original ids — live ones run to
// completion, an entry past its deadline expires without a solve, and the
// id sequence is bumped past every replayed id.
func TestJournalReplayCompletesJobs(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random("crashed", 12, 20, 5)
	now := time.Now()
	live := JournalEntry{
		ID: "job-7", Tenant: "acme", Name: g.Name(), N: g.N(), Edges: g.Edges(),
		Spec: JobSpec{K: 6}, Submitted: now.Add(-time.Minute),
	}
	expired := JournalEntry{
		ID: "job-8", Name: g.Name(), N: g.N(), Edges: g.Edges(),
		Spec:      JobSpec{K: 6, Deadline: time.Second},
		Submitted: now.Add(-time.Minute), Deadline: now.Add(-59 * time.Second),
	}
	for _, e := range []JournalEntry{live, expired} {
		if err := jr.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close() // the crash: entries never marked done

	jr2, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	svc := New(Config{Workers: 2, Solve: countingSolve(&runs, 0), Journal: jr2})
	defer svc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := svc.Wait(ctx, "job-7")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone.String() || info.Result == nil {
		t.Fatalf("replayed job-7 = %q (result %v), want done with a result", info.State, info.Result)
	}
	if info.Tenant != "acme" {
		t.Fatalf("replayed job-7 tenant = %q, want acme", info.Tenant)
	}
	infoExp, err := svc.Wait(ctx, "job-8")
	if err != nil {
		t.Fatal(err)
	}
	if infoExp.State != StateExpired.String() {
		t.Fatalf("replayed past-deadline job-8 = %q, want expired", infoExp.State)
	}
	if n := svc.Metrics().Snapshot().Int("replayed"); n != 2 {
		t.Fatalf("replayed = %d, want 2", n)
	}
	if runs.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1 (expired entry must not solve)", runs.Load())
	}

	// New submissions must not collide with resurrected ids.
	id, err := svc.Submit(graph.Random("fresh", 10, 15, 9), JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if id == "job-7" || id == "job-8" {
		t.Fatalf("fresh submission reused a replayed id %q", id)
	}

	// Completed jobs are marked done: a third life replays nothing.
	svc.Close()
	jr3, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	entries, err := jr3.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("after clean completion the journal still holds %d entries", len(entries))
	}
}

// TestJournalReplayRetiresDamagedEntry: an entry whose edges do not fit
// its vertex count cannot be rebuilt. Replay retires it instead of
// failing the restart, and still resurrects the sound entry beside it.
func TestJournalReplayRetiresDamagedEntry(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, e := range []JournalEntry{
		{ID: "job-1", N: 3, Edges: [][2]int{{0, 1}, {1, 5}}, Spec: JobSpec{K: 3}, Submitted: now},
		{ID: "job-2", N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Spec: JobSpec{K: 3}, Submitted: now},
	} {
		if err := jr.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()

	jr2, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0), Journal: jr2})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if info, err := svc.Wait(ctx, "job-2"); err != nil || info.State != StateDone.String() {
		t.Fatalf("sound entry job-2: %+v, %v; want done", info, err)
	}
	svc.mu.Lock()
	j := svc.jobs["job-2"]
	svc.mu.Unlock()
	<-j.recorded // finish has retired job-2's entry
	if _, err := svc.Job("job-1"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("damaged entry job-1 was admitted (err %v)", err)
	}
	if n := svc.Metrics().Snapshot().Int("replayed"); n != 1 {
		t.Fatalf("replayed = %d, want 1", n)
	}
	if got := jr2.Pending(); got != 0 {
		t.Fatalf("journal still holds %d entries, want the damaged one retired", got)
	}
}

// TestJournalDegradedModeAndRecovery: a write failure flips the journal
// memory-only without failing the calls; healing the disk flushes the
// backlog so nothing recorded during the spell is lost (and nothing
// completed is resurrected).
func TestJournalDegradedModeAndRecovery(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{}
	jr, err := OpenDiskJournal(dir, store.Options{FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr.baseBackoff = 5 * time.Millisecond
	jr.maxBackoff = 50 * time.Millisecond

	entry := func(id string) JournalEntry {
		return JournalEntry{ID: id, N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Submitted: time.Now()}
	}
	if err := jr.Record(entry("job-1")); err != nil {
		t.Fatal(err)
	}

	fs.fail.Store(true)
	if err := jr.Record(entry("job-2")); err != nil {
		t.Fatalf("Record during disk failure returned %v, want nil (degrade, not fail)", err)
	}
	if h := jr.Health(); !h.Degraded || h.Flips != 1 || h.Errors == 0 {
		t.Fatalf("after failed write Health = %+v, want degraded with errors counted", h)
	}
	if err := jr.Done("job-1"); err != nil { // completion during the spell
		t.Fatal(err)
	}
	if err := jr.Record(entry("job-3")); err != nil {
		t.Fatal(err)
	}
	if got := jr.Pending(); got != 2 {
		t.Fatalf("Pending during degraded spell = %d, want 2", got)
	}

	fs.fail.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for jr.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("journal never recovered; health %+v", jr.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := jr.Health(); h.ReopenAttempts == 0 {
		t.Fatalf("recovered with zero reopen attempts: %+v", h)
	}
	jr.Close()

	// The healed journal must hold exactly the backlog: job-2 and job-3
	// recorded during the spell, job-1 completed during it.
	jr2, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	entries, err := jr2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	if fmt.Sprint(ids) != "[job-2 job-3]" {
		t.Fatalf("replay after recovery = %v, want [job-2 job-3]", ids)
	}
}

// TestJournalDegradedForgetsUnwrittenJobs: while the journal is degraded,
// a job recorded and finished within the spell leaves nothing behind, so
// a journal whose disk stays broken does not grow by a completion per
// job. A completion is remembered only where the record may be on disk —
// a job recorded before the spell, or the entry whose failed write began
// it — and healing still deletes exactly those.
func TestJournalDegradedForgetsUnwrittenJobs(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{}
	jr, err := OpenDiskJournal(dir, store.Options{FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr.baseBackoff = 5 * time.Millisecond
	jr.maxBackoff = 50 * time.Millisecond
	record := func(id string) {
		t.Helper()
		e := JournalEntry{ID: id, N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Submitted: time.Now()}
		if err := jr.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	done := func(id string) {
		t.Helper()
		if err := jr.Done(id); err != nil {
			t.Fatal(err)
		}
	}

	record("job-before")
	record("job-finished-before")
	done("job-finished-before")
	fs.fail.Store(true)
	record("job-failed-write") // begins the spell
	done("job-before")
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("job-%d", i)
		record(id)
		done(id)
	}
	record("job-live")
	jr.mu.Lock()
	remembered := len(jr.pendingDone)
	jr.mu.Unlock()
	if remembered != 2 {
		t.Fatalf("degraded journal remembers %d completions, want 2 (job-before, job-failed-write)", remembered)
	}
	if got := jr.Pending(); got != 2 {
		t.Fatalf("Pending during the spell = %d, want 2 (job-failed-write, job-live)", got)
	}

	fs.fail.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for jr.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("journal never recovered; health %+v", jr.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	jr.Close()
	jr2, err := OpenDiskJournal(dir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	entries, err := jr2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	if fmt.Sprint(ids) != "[job-failed-write job-live]" {
		t.Fatalf("replay after recovery = %v, want [job-failed-write job-live]", ids)
	}
}

// failingBackend fails every Put while fail is set; everything else
// delegates to an in-memory backend.
type failingBackend struct {
	*MemoryBackend
	fail atomic.Bool
}

func (b *failingBackend) Put(key string, rec CacheRecord) error {
	if b.fail.Load() {
		return errFlaky
	}
	return b.MemoryBackend.Put(key, rec)
}

// TestResilientBackendDegradesAndRecovers: a failed primary write diverts
// to the memory fallback (Put never errors), and a successful reopen
// flushes the fallback into the fresh primary.
func TestResilientBackendDegradesAndRecovers(t *testing.T) {
	primary := &failingBackend{MemoryBackend: NewMemoryBackend(0)}
	var reopened atomic.Int64
	b := NewResilientBackend(primary, func() (Backend, error) {
		reopened.Add(1)
		return NewMemoryBackend(0), nil
	}, nil)
	b.baseBackoff = 5 * time.Millisecond
	b.maxBackoff = 50 * time.Millisecond
	defer b.Close()

	if err := b.Put("k1", CacheRecord{Chi: 3}); err != nil {
		t.Fatal(err)
	}
	primary.fail.Store(true)
	if err := b.Put("k2", CacheRecord{Chi: 4}); err != nil {
		t.Fatalf("Put with broken primary returned %v, want nil (divert to fallback)", err)
	}
	if h := b.Health(); !h.Degraded || h.Flips != 1 {
		t.Fatalf("after failed Put Health = %+v, want degraded", h)
	}
	if rec, ok := b.Get("k2"); !ok || rec.Chi != 4 {
		t.Fatalf("degraded Get(k2) = %+v %v, want the diverted record", rec, ok)
	}

	deadline := time.Now().Add(10 * time.Second)
	for b.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("backend never recovered; health %+v", b.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reopened.Load() == 0 {
		t.Fatal("recovered without calling reopen")
	}
	if rec, ok := b.Get("k2"); !ok || rec.Chi != 4 {
		t.Fatalf("post-recovery Get(k2) = %+v %v, want the flushed record", rec, ok)
	}
}

// TestWaitAndNextProgressSurviveCloseRace: callers blocked in Wait and
// NextProgress while the service shuts down get answers, not deadlocks.
func TestWaitAndNextProgressSurviveCloseRace(t *testing.T) {
	solve := func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
		}
		col, k := greedyColor(g)
		return core.Outcome{Instance: g.Name(), Chi: k, Coloring: col}
	}
	svc := New(Config{Workers: 1, Solve: solve})
	id, err := svc.Submit(graph.Random("race", 10, 15, 1), JobSpec{K: 6})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var waitInfo JobInfo
	var waitErr, progErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		waitInfo, waitErr = svc.Wait(ctx, id)
	}()
	go func() {
		defer wg.Done()
		// Keep pulling progress until the terminal state reports no more.
		var seq int64
		for {
			p, ok, err := svc.NextProgress(ctx, id, seq)
			if err != nil || !ok {
				progErr = err
				return
			}
			seq = p.Seq
		}
	}()
	svc.Close() // races both blocked callers

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait/NextProgress deadlocked against Close")
	}
	if waitErr != nil {
		t.Fatalf("Wait returned %v", waitErr)
	}
	if waitInfo.State != StateDone.String() {
		t.Fatalf("Wait saw state %q, want done (Close waits for in-flight jobs)", waitInfo.State)
	}
	if progErr != nil {
		t.Fatalf("NextProgress returned %v", progErr)
	}
}

// TestCancelAllWithQueuedJobs: CancelAll reaches jobs still in the
// priority queue, not just the one occupying the worker — every submission
// terminates as canceled and Wait observes it.
func TestCancelAllWithQueuedJobs(t *testing.T) {
	svc := New(Config{Workers: 1, Solve: blockingSolve()})
	defer svc.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		g := graph.Random(fmt.Sprintf("q-%d", i), 10, 15, int64(i+1))
		id, err := svc.Submit(g, JobSpec{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wait until the single worker holds one job and the rest are queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Metrics().Snapshot()
		if st.Int("running") == 1 && st.Int("queue_depth") == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 1 running / 3 queued: %d running, %d queued", st.Int("running"), st.Int("queue_depth"))
		}
		time.Sleep(time.Millisecond)
	}

	svc.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range ids {
		info, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if info.State != StateCanceled.String() {
			t.Fatalf("job %s state = %q, want canceled", id, info.State)
		}
	}
	if n := svc.Metrics().Snapshot().Int("canceled"); n != 4 {
		t.Fatalf("canceled = %d, want 4", n)
	}
}
