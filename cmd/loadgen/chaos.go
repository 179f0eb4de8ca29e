package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// runChaos is the self-contained chaos drill behind `loadgen -chaos`: the
// same in-process daemon as -selftest, but with the fault-injection
// harness armed — every Nth store write fails (tearing some of them) and
// every Nth solve panics. The drill passes when the daemon shrugs it all
// off: no protocol errors on the wire, every injected panic isolated into
// its own job's failure, and the daemon still fully serving after the
// disk "heals".
func runChaos() error {
	dir, err := os.MkdirTemp("", "loadgen-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The injector starts disarmed so the stores open cleanly; it arms
	// right before traffic.
	fs := faultinject.NewFS(nil, faultinject.Config{
		Seed:          42,
		FailEvery:     7,
		PartialWrites: true,
	})
	fs.Disarm()

	cacheDir := filepath.Join(dir, "cache")
	opts := store.Options{FS: fs}
	disk, err := service.OpenDiskBackendOptions(cacheDir, opts)
	if err != nil {
		return fmt.Errorf("open cache store: %w", err)
	}
	backend := service.NewResilientBackend(disk, func() (service.Backend, error) {
		return service.OpenDiskBackendOptions(cacheDir, opts)
	}, nil)
	journal, err := service.OpenDiskJournal(filepath.Join(dir, "journal"), opts, nil)
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}

	solve, panics := faultinject.Panics(sleepSolve(2*time.Millisecond), 5)
	svc := service.New(service.Config{
		Workers: 4, QueueDepth: 512, Solve: solve,
		Backend: backend, Journal: journal,
	})
	srv := httptest.NewServer(httpapi.New(httpapi.Config{Service: svc, Disk: backend}))
	defer func() {
		srv.Close()
		svc.CancelAll()
		svc.Close()
	}()
	if err := waitReady(srv.URL, 5*time.Second); err != nil {
		return err
	}

	fs.Arm()
	rep, err := run(runConfig{
		addr: srv.URL, n: 150, concurrency: 8, tenants: 3, isoFrac: 0.3,
		vertices: 12, degree: 2, k: 4, timeout: "5s", seed: 13,
	})
	if err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}
	rep.print(os.Stderr)
	if rep.protocolErrors > 0 {
		return fmt.Errorf("chaos: %d responses violated the error-envelope contract", rep.protocolErrors)
	}
	if rep.accepted == 0 {
		return fmt.Errorf("chaos: nothing was accepted")
	}

	// Let accepted work quiesce so the panic bookkeeping is final.
	var st obs.Snapshot
	for deadline := time.Now().Add(30 * time.Second); ; {
		st = svc.Metrics().Snapshot()
		if st.Int("queue_depth") == 0 && st.Int("running") == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %d queued / %d running jobs never finished", st.Int("queue_depth"), st.Int("running"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fs.Injected() == 0 {
		return fmt.Errorf("chaos: the store fault injector never fired — the drill tested nothing")
	}
	if panics.Load() == 0 {
		return fmt.Errorf("chaos: no solver panics were injected — the drill tested nothing")
	}
	if st.Int("panics") != panics.Load() {
		return fmt.Errorf("chaos: %d panics injected but %d isolated by the service", panics.Load(), st.Int("panics"))
	}

	// Heal the disk and confirm the daemon is still serving.
	fs.Disarm()
	if err := waitReady(srv.URL, 5*time.Second); err != nil {
		return fmt.Errorf("after chaos: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: chaos: %d store faults injected, %d solver panics isolated, store degraded=%v\n",
		fs.Injected(), panics.Load(), st.Bool("store_degraded"))
	return nil
}
