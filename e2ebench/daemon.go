package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// daemon is gcolord's pipeline running in this process, wired as
// `gcolord -store.dir <dir>` wires it: a self-healing disk cache backend
// and job journal under dir, the service with its default worker count
// and flight recorder, and the HTTP API on a loopback listener.
type daemon struct {
	dir  string
	svc  *service.Service
	srv  *http.Server
	base string // http://127.0.0.1:port
	ctl  *http.Client
	done chan error
}

// startDaemon opens the store and journal in a fresh dir, starts the
// service and listener, and returns once /readyz answers 200. With a
// non-nil tracer the Solve, Backend and Journal seams are wrapped to record
// spans.
func startDaemon(dir string, tr *tracer) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// gcolord logs each request and finished job at Info to stderr; the
	// records are formatted here too, and discarded.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	disk, err := service.OpenDiskBackendOptions(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	resilient := service.NewResilientBackend(disk, func() (service.Backend, error) {
		return service.OpenDiskBackendOptions(dir, store.Options{})
	}, logger)
	journal, err := service.OpenDiskJournal(filepath.Join(dir, "journal"), store.Options{}, logger)
	if err != nil {
		resilient.Close()
		return nil, fmt.Errorf("open job journal: %w", err)
	}
	cfg := service.Config{
		QueueDepth:     1024,
		DefaultTimeout: time.Minute,
		CacheCapacity:  4096,
		Backend:        resilient,
		Journal:        journal,
		AgingStep:      30 * time.Second,
		TraceKeep:      256,
		Logger:         logger,
	}
	if tr != nil {
		cfg.Solve = tr.solve
		cfg.Backend = &tracedBackend{Backend: resilient, tr: tr}
		cfg.Journal = &tracedJournal{Journal: journal, tr: tr}
	}
	svc := service.New(cfg)
	d := &daemon{
		dir: dir,
		svc: svc,
		srv: &http.Server{
			Handler: httpapi.New(httpapi.Config{
				Service:        svc,
				Disk:           resilient,
				Heartbeat:      10 * time.Second,
				RequestTimeout: 30 * time.Second,
				Logger:         logger,
			}),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		ctl:  newClient(),
		done: make(chan error, 1),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	go func() { d.done <- d.srv.Serve(ln) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.ctl.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, waits for Serve to return, closes the
// service (which closes the store and journal) and removes the directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.ctl.CloseIdleConnections()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.svc.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// solverRuns reads solver_runs from GET /v1/stats.
func (d *daemon) solverRuns() (int64, error) {
	var st struct {
		SolverRuns int64 `json:"solver_runs"`
	}
	if err := getJSON(d.ctl, d.base+"/v1/stats", &st); err != nil {
		return 0, err
	}
	return st.SolverRuns, nil
}

// newClient is one closed-loop client: a single keep-alive connection, no
// proxy, no compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}
