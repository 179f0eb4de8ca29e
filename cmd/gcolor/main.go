// Command gcolor optimally colors a graph through the paper's full flow:
// 0-1 ILP reduction, optional instance-independent and instance-dependent
// symmetry-breaking predicates, and a CDCL or branch-and-bound PB solver.
//
// Usage:
//
//	gcolor -bench queen6_6 -k 10 -sbp NU+SC -instdep -engine pbs2
//	gcolor -file graph.col -k 8 -engine pueblo -timeout 30s
//	gcolor -bench anna -exact          # problem-specific B&B baseline
//	gcolor -bench queen6_6 -portfolio  # race all engines
//	gcolor -batch myciel3,myciel4,queen5_5 -k 8 -portfolio -workers 4
//
// Batch mode runs the listed instances (benchmark names and/or DIMACS .col
// paths) through the concurrent coloring service, so isomorphic inputs are
// deduplicated by the canonical-form cache. Ctrl-C cancels in-flight
// solves promptly in both modes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/service"
	"repro/internal/solverutil"
	"repro/internal/store"
)

func main() {
	bench := flag.String("bench", "", "named benchmark instance (see benchgen -list)")
	file := flag.String("file", "", "DIMACS .col file to color")
	batch := flag.String("batch", "", "comma-separated instances (bench names or .col paths) solved through the coloring service")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	k := flag.Int("k", 20, "color bound K")
	sbpName := flag.String("sbp", "none", "symmetry breaking: a construction (none,NU,CA,LI,SC,NU+SC), optionally comma-combined with a lex-leader variant name (full; canonset, canon, involution, inv and race are aliases of it), e.g. NU,full; the lex-leader layer runs only with -instdep")
	instDep := flag.Bool("instdep", false, "detect and break instance-dependent symmetries")
	engineName := flag.String("engine", "pbs2", "solver engine: pbs2,galena,pueblo,bnb")
	portfolio := flag.Bool("portfolio", false, "race all engines, keep the first definitive answer")
	var knobs core.Knobs
	flag.IntVar(&knobs.Parallel, "parallel", 0, "cube-and-conquer worker count (>1 enables the parallel subsystem)")
	flag.IntVar(&knobs.CubeDepth, "cube-depth", 0, "cube branching depth (0 = auto, ~8 cubes per worker)")
	flag.IntVar(&knobs.ShareLBD, "share-lbd", 0, "learnt-clause exchange LBD threshold (0 = default 2, negative disables sharing)")
	timeout := flag.Duration("timeout", time.Minute, "solve budget per instance")
	priority := flag.Int("priority", 0, "batch mode: admission priority class (0 = normal, higher = sooner)")
	deadline := flag.Duration("deadline", 0, "batch mode: end-to-end budget per job including queue time (0 = none)")
	exact := flag.Bool("exact", false, "use the problem-specific DSATUR branch-and-bound instead")
	showColoring := flag.Bool("coloring", false, "print the witness coloring")
	flag.IntVar(&knobs.GlueLBD, "glue-lbd", 0, "LBD at or below which learnt clauses are kept forever (0 = default 2)")
	flag.Int64Var(&knobs.ReduceInterval, "reduce-interval", 0, "conflicts between learnt-database reductions (0 = default 2000)")
	flag.Int64Var(&knobs.RestartBase, "restart-base", 0, "Luby restart unit in conflicts (0 = engine default)")
	// The flags of three deleted knobs still parse, so old command lines
	// keep running; their values are ignored.
	flag.Int("chrono", 0, "ignored: chronological backtracking was removed")
	flag.Int64("vivify", 0, "ignored: clause vivification was removed")
	flag.Bool("dynamic-lbd", false, "ignored: dynamic LBD recomputation was removed")
	progress := flag.Bool("progress", false, "print live search progress to stderr while solving")
	storeDir := flag.String("store.dir", "", "batch mode: persist the result cache in this directory (snapshot+WAL)")
	storeMaxAge := flag.Duration("store.maxage", 0, "drop persisted records older than this at compaction (0 = keep forever)")
	storeMaxBytes := flag.Int64("store.maxbytes", 0, "target on-disk size of the persistent cache; oldest records dropped at compaction (0 = unbounded)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gcolor: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gcolor: memprofile:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	kind, err := service.ParseSBPSpec(*sbpName)
	if err != nil {
		fatal(err)
	}
	eng, err := service.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	spec := service.JobSpec{
		K: *k, SBP: kind, Engine: eng, Portfolio: *portfolio,
		InstanceDependent: *instDep, Timeout: *timeout,
		Priority: *priority, Deadline: *deadline, Knobs: knobs,
	}

	if *batch != "" {
		if *bench != "" || *file != "" {
			fatal(fmt.Errorf("-batch excludes -bench and -file"))
		}
		sc := storeConfig{dir: *storeDir, maxAge: *storeMaxAge, maxBytes: *storeMaxBytes}
		if err := runBatch(ctx, strings.Split(*batch, ","), spec, *workers, sc, *progress); err != nil {
			fatal(err)
		}
		return
	}
	if *storeDir != "" {
		fatal(fmt.Errorf("-store.dir requires -batch (single solves bypass the service cache)"))
	}

	g, err := loadGraph(*bench, *file)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance %s: |V|=%d |E|=%d\n", g.Name(), g.N(), g.M())

	if *exact {
		res := heuristic.ExactChromatic(g, time.Now().Add(*timeout))
		status := "proven"
		if !res.Complete {
			status = "budget exhausted (upper bound)"
		}
		fmt.Printf("exact B&B: chi = %d (%s), %d nodes\n", res.Chi, status, res.Nodes)
		if *showColoring {
			fmt.Println("coloring:", res.Colors)
		}
		return
	}

	cfg := core.Config{
		K: *k, SBP: kind, InstanceDependent: *instDep,
		Engine: eng, Portfolio: *portfolio, Timeout: *timeout, Knobs: knobs,
	}
	if *progress {
		cfg.Progress = liveProgressPrinter()
		cfg.ProgressInterval = 500 * time.Millisecond
	}
	out := core.Solve(ctx, g, cfg)
	fmt.Printf("encoding: %d vars, %d clauses, %d PB constraints (SBP=%v)\n",
		out.EncodeStats.Vars, out.EncodeStats.CNF, out.EncodeStats.PB, kind)
	if s := out.Sym; s != nil {
		fmt.Printf("symmetries: variant=%s, |Aut|=%s, %d generators, %d perms broken, detect %v, +%d SBP clauses\n",
			sbp.VariantName, s.Order, s.Generators, s.PredicatePerms,
			s.DetectTime.Round(time.Millisecond), s.AddedCNF)
	}
	winner := ""
	if *portfolio && out.Solved() {
		winner = fmt.Sprintf(" [winner %v]", out.Winner)
	}
	switch out.Result.Status {
	case pbsolver.StatusOptimal:
		fmt.Printf("OPTIMAL: chi = %d (within K=%d) in %v, %d conflicts%s\n",
			out.Chi, *k, out.Result.Runtime.Round(time.Millisecond), out.Result.Stats.Conflicts, winner)
	case pbsolver.StatusUnsat:
		fmt.Printf("UNSAT: chi > %d, proven in %v%s\n", *k, out.Result.Runtime.Round(time.Millisecond), winner)
	case pbsolver.StatusSat:
		fmt.Printf("FEASIBLE: %d colors found, optimality unproven (budget)\n", out.Result.Objective)
	default:
		fmt.Printf("UNKNOWN: budget exhausted with no solution\n")
	}
	st := out.Result.Stats
	fmt.Printf("search: %d decisions, %d restarts\n", st.Decisions, st.Restarts)
	if p := out.Par; p != nil {
		switch {
		case p.CubesGenerated > 0 || p.CubesRefuted > 0:
			fmt.Printf("parallel: %d workers, %d cubes (%d refuted by lookahead, %d conquered), %d clauses shared, %d imported\n",
				p.Workers, p.CubesGenerated, p.CubesRefuted, p.CubesClosed, p.ClausesExported, p.ClausesImported)
		case out.Solved():
			fmt.Printf("parallel: %d workers, worker 0 decided alone (no cubes)\n", p.Workers)
		default:
			fmt.Printf("parallel: %d workers, stopped while worker 0 searched alone (no cubes)\n", p.Workers)
		}
	}
	if *showColoring && out.Coloring != nil {
		fmt.Println("coloring:", out.Coloring)
	}
}

// liveProgressPrinter builds a -progress callback printing one line per
// snapshot to stderr. Safe for concurrent use (portfolio engines share
// it).
func liveProgressPrinter() func(p solverutil.Progress) {
	var mu sync.Mutex
	return func(p solverutil.Progress) {
		mu.Lock()
		defer mu.Unlock()
		best := "-"
		if p.Incumbent >= 0 {
			best = fmt.Sprintf("%d", p.Incumbent)
		}
		fmt.Fprintf(os.Stderr,
			"progress: engine=%s best=%s conflicts=%d restarts=%d learnts=%d\n",
			p.Engine, best, p.Conflicts, p.Restarts, p.Learnts)
	}
}

// watchJobProgress streams one batch job's progress snapshots to stderr
// until the job reaches a terminal state.
func watchJobProgress(svc *service.Service, id, name string) {
	var seq int64
	for {
		p, more, err := svc.NextProgress(context.Background(), id, seq)
		if err != nil {
			return
		}
		if p.Seq > seq {
			seq = p.Seq
			best := "-"
			if p.Incumbent >= 0 {
				best = fmt.Sprintf("%d", p.Incumbent)
			}
			phase := p.Phase
			if phase == "" {
				phase = "-"
			}
			fmt.Fprintf(os.Stderr, "%s %s: phase=%s k=%d engine=%s best=%s conflicts=%d restarts=%d\n",
				id, name, phase, p.K, p.Engine, best, p.Conflicts, p.Restarts)
		}
		if !more {
			return
		}
	}
}

// storeConfig carries the persistent-cache flags into batch mode.
type storeConfig struct {
	dir      string
	maxAge   time.Duration
	maxBytes int64
}

// runBatch solves every named instance through the coloring service and
// prints a per-job summary once all finish (or ctx is cancelled). With
// store.dir set, the result cache is persisted there, so a later batch run
// (or gcolord) over the same directory reuses every definitive answer.
func runBatch(ctx context.Context, names []string, spec service.JobSpec, workers int, sc storeConfig, progress bool) error {
	cfg := service.Config{Workers: workers, DefaultTimeout: spec.Timeout}
	if sc.dir != "" {
		backend, err := service.OpenDiskBackendOptions(sc.dir, store.Options{
			MaxAge:   sc.maxAge,
			MaxBytes: sc.maxBytes,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "persistent cache at %s: %d records loaded\n", sc.dir, backend.Len())
		cfg.Backend = backend
	}
	svc := service.New(cfg)
	defer svc.Close()

	// Per-job failures (unreadable instance, invalid spec, admission
	// refusals that outlast the backoff) are collected and reported after
	// the table, so one bad entry no longer aborts the whole batch.
	type failure struct {
		name string
		err  error
	}
	var failures []failure

	ids := make([]string, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		g, err := loadInstance(name)
		if err != nil {
			failures = append(failures, failure{name, err})
			continue
		}
		id, err := submitWithRetry(ctx, svc, g, spec)
		if err != nil {
			failures = append(failures, failure{name, err})
			continue
		}
		ids = append(ids, id)
		if progress {
			go watchJobProgress(svc, id, g.Name())
		}
	}

	go func() {
		<-ctx.Done()
		svc.CancelAll()
	}()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "JOB\tINSTANCE\tSTATE\tSTATUS\tCHI\tRUNTIME\tENGINE\tCACHE")
	for _, id := range ids {
		info, err := svc.Wait(context.Background(), id)
		if err != nil {
			failures = append(failures, failure{id, err})
			continue
		}
		status, chi, runtime, engine, cache := "-", "-", "-", "-", ""
		if r := info.Result; r != nil {
			status = r.Status.String()
			if r.Status == pbsolver.StatusOptimal {
				chi = fmt.Sprintf("%d", r.Chi)
			}
			runtime = r.Runtime.Round(time.Millisecond).String()
			engine = r.Winner
			if r.CacheHit {
				cache = "hit"
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			info.ID, info.Instance, info.State, status, chi, runtime, engine, cache)
	}
	w.Flush()
	st := svc.Metrics().Snapshot()
	fmt.Printf("batch: %d submitted, %d solver runs, %d cache hits, %d dedup joins\n",
		st.Int("submitted"), st.Int("solver_runs"), st.Int("cache_hits"), st.Int("dedup_joins"))
	fmt.Printf("canon: %d generators, %d orbit prunes, %d prefix prunes, %d inexact (%d skipped persists)\n",
		st.Int("canon_generators"), st.Int("canon_orbit_prunes"), st.Int("canon_prefix_prunes"),
		st.Int("canon_inexact"), st.Int("inexact_skips"))
	if row, ok := st.Table("sbp_variants")[sbp.VariantName]; ok {
		fmt.Printf("sbp: %s %d runs/%d perms/%d clauses\n", sbp.VariantName, row["runs"], row["perms"], row["clauses"])
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "gcolor: %s: %v\n", f.name, f.err)
		}
		return fmt.Errorf("%d of %d jobs failed", len(failures), len(failures)+len(ids))
	}
	return nil
}

// submitWithRetry submits one job, honoring admission backpressure: a
// queue-full or rate-limit rejection is retried after the service's
// RetryAfter hint (falling back to backoff with decorrelated jitter)
// instead of failing the batch. Quota and validation rejections are
// permanent — more retries cannot fix them — and fail the job immediately.
func submitWithRetry(ctx context.Context, svc *service.Service, g *graph.Graph, spec service.JobSpec) (string, error) {
	const (
		maxAttempts = 8
		baseDelay   = 100 * time.Millisecond
		maxDelay    = 5 * time.Second
	)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	prev := baseDelay
	for attempt := 1; ; attempt++ {
		id, err := svc.Submit(g, spec)
		if err == nil {
			return id, nil
		}
		var adm *service.AdmissionError
		if !errors.As(err, &adm) || adm.Reason != service.ReasonQueueFull || attempt >= maxAttempts {
			return "", fmt.Errorf("submit %s: %w", g.Name(), err)
		}
		wait := adm.RetryAfter
		if wait <= 0 {
			// Decorrelated jitter — wait = min(cap, rand[base, prev*3]) —
			// so retries from many concurrent batch runners spread out
			// instead of re-colliding in synchronized exponential waves.
			wait = baseDelay + time.Duration(rng.Int63n(int64(prev*3-baseDelay)+1))
			if wait > maxDelay {
				wait = maxDelay
			}
			prev = wait
		} else if wait > maxDelay {
			wait = maxDelay
		}
		fmt.Fprintf(os.Stderr, "gcolor: %s: queue full, retrying in %v (attempt %d/%d)\n",
			g.Name(), wait.Round(time.Millisecond), attempt, maxAttempts)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// loadInstance resolves a batch entry: a named benchmark when the registry
// knows it (benchmark names may contain dots, e.g. DSJC125.9), a DIMACS
// .col path otherwise.
func loadInstance(name string) (*graph.Graph, error) {
	g, berr := graph.Benchmark(name)
	if berr == nil {
		return g, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a benchmark (%v) nor a readable file (%v)", name, berr, err)
	}
	defer f.Close()
	return graph.ParseDimacs(name, f)
}

func loadGraph(bench, file string) (*graph.Graph, error) {
	switch {
	case bench != "" && file != "":
		return nil, fmt.Errorf("use -bench or -file, not both")
	case bench != "":
		return graph.Benchmark(bench)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ParseDimacs(file, f)
	}
	return nil, fmt.Errorf("one of -bench or -file is required")
}

func fatal(err error) {
	// os.Exit skips deferred handlers; flush an in-flight CPU profile so
	// -cpuprofile never leaves a truncated file behind on error paths.
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "gcolor:", err)
	os.Exit(1)
}
