package httpapi

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/store"
)

// TestChaosOverHTTP drives 150 submissions from eight clients through a
// daemon whose result cache and job journal each fail every 7th disk write
// (tearing it), and whose solver panics on every 5th call. Every answer
// must be a 202 or an error envelope, every accepted job must finish, and
// each injected panic must fail only its own job. Both components must
// degrade, and once the disk heals both must reattach, /readyz must say
// "ok" and no journaled job may stay pending. Reattaching waits out the
// reopen backoff, which starts at 1 s, so healing is given 10 s.
func TestChaosOverHTTP(t *testing.T) {
	dir := t.TempDir()
	// One injector per component, so each faults on its own 7th write.
	// They start disarmed, so the stores open cleanly.
	injector := func() *faultinject.FS {
		fs := faultinject.NewFS(nil, faultinject.Config{FailEvery: 7, PartialWrites: true})
		fs.Disarm()
		return fs
	}
	cacheFS, journalFS := injector(), injector()
	cacheDir, cacheOpts := filepath.Join(dir, "cache"), store.Options{FS: cacheFS}
	disk, err := service.OpenDiskBackendOptions(cacheDir, cacheOpts)
	if err != nil {
		t.Fatal(err)
	}
	cache := service.NewResilientBackend(disk, func() (service.Backend, error) {
		return service.OpenDiskBackendOptions(cacheDir, cacheOpts)
	}, nil)
	journal, err := service.OpenDiskJournal(filepath.Join(dir, "journal"), store.Options{FS: journalFS}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The real solver, so definitive answers reach the cache.
	solve, panics := faultinject.Panics(service.DefaultSolve, 5)
	srv, svc := startStub(t, service.Config{
		Workers: 4, QueueDepth: 512, Solve: solve, Backend: cache, Journal: journal,
	}, Config{Disk: cache})

	// Every third job relabels one base graph, so cache hits and joins
	// run under the faults too; the rest are novel.
	base := graph.Random("base", 12, 12, 1)
	rng := rand.New(rand.NewSource(13))
	bodies := make([]string, 150)
	for i := range bodies {
		g := base
		if i%3 != 0 {
			g = graph.Random("novel", 12, 12, int64(i))
		}
		bodies[i] = edgeListJSON(g, rng.Perm(g.N()), `,"k":4,"timeout":"5s"`)
	}
	cacheFS.Arm()
	journalFS.Arm()
	ids, _ := submitAll(t, srv, 8, bodies)
	if len(ids) == 0 {
		t.Fatal("nothing was accepted")
	}
	for _, id := range ids {
		waitDone(t, srv, id)
	}
	if cacheFS.Injected() == 0 || journalFS.Injected() == 0 {
		t.Fatalf("store faults injected: cache %d, journal %d; want both above 0", cacheFS.Injected(), journalFS.Injected())
	}
	if isolated := svc.Metrics().Snapshot().Int("panics"); panics.Load() == 0 || isolated != panics.Load() {
		t.Fatalf("%d solver panics injected, %d isolated; want as many, and some", panics.Load(), isolated)
	}
	if c, j := cache.Health(), journal.Health(); c.Flips == 0 || j.Flips == 0 {
		t.Fatalf("a component never degraded: cache %+v, journal %+v", c, j)
	}

	cacheFS.Disarm()
	journalFS.Disarm()
	var ready struct {
		Status         string `json:"status"`
		JournalPending int64  `json:"journal_pending"`
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp := doReq(t, http.MethodGet, srv.URL+"/readyz", "", nil)
		err := json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		c, j := cache.Health(), journal.Health()
		if !c.Degraded && c.ReopenAttempts > 0 && !j.Degraded && j.ReopenAttempts > 0 &&
			ready.Status == "ok" && ready.JournalPending == 0 {
			t.Logf("%d jobs, %d panics isolated; write errors: cache %d, journal %d",
				len(ids), panics.Load(), c.Errors, j.Errors)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not healed 10 s after the disk: cache %+v, journal %+v, readyz %+v", c, j, ready)
		}
	}
}
