// Command e2ebench is the end-to-end benchmark of the coloring service. It
// runs gcolord's pipeline in this process (service and HTTP API on a
// loopback listener, disk cache and job journal in a fresh directory),
// drives it over HTTP with a closed loop of clients from a seeded job list,
// checks every answer against a chromatic number known from outside the
// solver, and prints the metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload solve --seed 20040324 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times an untraced run sets the daemon up; it
// reports the median.
const setupRounds = 5

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: hits, solve, shatter or racers")
	seed := flag.Int64("seed", defaultSeed, "workload seed; one seed always yields the same job list")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	traced := flag.Int("trace", 0, "0: print the end-to-end metrics; 1: traced run, print the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for store directories and span files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	runDir := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)

	b := bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: runDir}
	built := time.Now()
	b.warm = w.warm()
	b.jobs = w.list(*seed)
	fmt.Printf("job lists: %d warm-up and %d measured jobs built in %.2f s\n",
		len(b.warm), len(b.jobs), time.Since(built).Seconds())
	if *traced == 1 {
		return b.tracedRun(filepath.Join(*dir, "spans"))
	}
	return b.run()
}

type bench struct {
	w          workload
	seed       int64
	dur        time.Duration
	dir        string
	warm, jobs []job
	stores     int
}

// setUp starts a daemon on a fresh store directory and runs the warm-up
// list through it; every warm-up job must be answered correctly.
func (b *bench) setUp(tr *tracer) (*daemon, error) {
	b.stores++
	d, err := startDaemon(filepath.Join(b.dir, fmt.Sprintf("store-%d", b.stores)), tr)
	if err != nil {
		return nil, err
	}
	for _, a := range drive(d, b.w, b.warm, 0, tr).answers {
		if !a.solved {
			d.stop()
			return nil, fmt.Errorf("warm-up job %d not solved (status %d, %q)", a.index, a.status, a.wrong)
		}
	}
	return d, nil
}

// run is the untraced run: set up setupRounds times, keeping the last
// daemon, then measure.
func (b *bench) run() int {
	var d *daemon
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return fail(err)
			}
		}
		start := time.Now()
		var err error
		if d, err = b.setUp(nil); err != nil {
			return fail(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runsBefore, err := d.solverRuns()
	if err != nil {
		d.stop()
		return fail(err)
	}
	calBefore := calibrate()
	p := drive(d, b.w, b.jobs, b.dur, nil)
	calAfter := calibrate()
	runsAfter, err := d.solverRuns()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fail(err)
	}
	s := summarize(p)
	var problems []string
	if b.w.name == "hits" && runsAfter != runsBefore {
		problems = append(problems, fmt.Sprintf("solver_runs moved from %d to %d during the measured phase", runsBefore, runsAfter))
	}
	m := endToEnd(s, peakRSSMB(), quantile(setups, 0.5))
	b.report(p, s, m, problems)
	fmt.Printf("set-up: %s s (median of %d)\n", joinFloats(setups, "%.3f"), setupRounds)
	printDrift(calBefore, calAfter)
	return b.emit(s, m, problems)
}

// tracedRun measures the phase untraced and traced on two daemons, half the
// run length each, replays the head of the list through the pipeline
// layers, and prints the per-layer metrics. The spans are written to
// spanDir.
func (b *bench) tracedRun(spanDir string) int {
	half := b.dur / 2
	d, err := b.setUp(nil)
	if err != nil {
		return fail(err)
	}
	calBefore := calibrate()
	plain := drive(d, b.w, b.jobs, half, nil)
	if err := d.stop(); err != nil {
		return fail(err)
	}
	tr := &tracer{}
	if d, err = b.setUp(tr); err != nil {
		return fail(err)
	}
	tr.reset() // keep only the measured phase's spans
	p := drive(d, b.w, b.jobs, half, tr)
	calAfter := calibrate()
	if err := d.stop(); err != nil { // stop waits for the workers' last spans
		return fail(err)
	}
	s := summarize(p)
	var problems []string
	reps, err := replay(b.w, b.jobs, p.answers, tr)
	if err != nil {
		problems = append(problems, err.Error())
	}
	// A diverging replay makes the layer figures suspect, not the answers
	// wrong, so it is reported without failing the run.
	for _, msg := range replayMismatches(p, reps) {
		fmt.Println("REPLAY DIVERGED:", msg)
	}
	spans := tr.snapshot()
	m := perLayer(p, summarize(plain), spans, reps)
	b.report(p, s, m, problems)
	fmt.Printf("replayed: %d of the first %d jobs\n", len(reps), b.w.replay)
	fmt.Printf("spans: %s\n", spanCounts(spans))
	printDrift(calBefore, calAfter)
	if err := os.MkdirAll(spanDir, 0o755); err == nil {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}
	return b.emit(s, m, problems)
}

// printDrift prints the calibration loop's times from before and after the
// measured phases, a diagnostic rather than a metric.
func printDrift(before, after time.Duration) {
	fmt.Printf("drift: calibration loop %.1f ms before, %.1f ms after the measured phase (%+.1f%%)\n",
		ms(before), ms(after), 100*(ms(after)/ms(before)-1))
}

// spanCounts lists how many spans each layer recorded, so a layer that
// did no work on a workload shows as absent, not as a zero time.
func spanCounts(spans []span) string {
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, counts[n])
	}
	return strings.Join(parts, " ")
}

// replayMismatches lists the sequential solver jobs whose replay took
// another number of conflicts than the service reported: the engine is
// deterministic, so a mismatch means the replay did not redo the
// service's work.
func replayMismatches(p phase, reps []replayed) []string {
	conflicts := make(map[int]int64)
	for _, a := range p.answers {
		if _, seen := conflicts[a.index]; !seen && a.solved {
			conflicts[a.index] = a.conflicts
		}
	}
	var out []string
	for _, r := range reps {
		if r.solver && r.racer == "" && r.stats.Conflicts != conflicts[r.index] {
			out = append(out, fmt.Sprintf("replay of job %d took %d conflicts, the service %d",
				r.index, r.stats.Conflicts, conflicts[r.index]))
		}
	}
	return out
}

// report prints a readable account of the run ahead of the JSON line.
func (b *bench) report(p phase, s summary, m metrics, problems []string) {
	fmt.Printf("workload %s, seed %d: %d jobs attempted, %d answered, %d solved and verified in %.2f s with %d client(s)\n",
		b.w.name, b.seed, s.attempted, s.answered, s.solved, p.wall.Seconds(), b.w.clients)
	fmt.Printf("latency samples: %d (p90 has %d beyond it)\n", len(s.latencies), len(s.latencies)-int(0.9*float64(len(s.latencies))))
	if p.exhausted {
		fmt.Printf("note: the %d-job list ran out before %s\n", len(b.jobs), b.dur)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %12.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, w := range s.wrong {
		fmt.Println("WRONG ANSWER:", w)
	}
	for _, pr := range problems {
		fmt.Println("CHECK FAILED:", pr)
	}
}

// emit prints the result line and returns the exit code: nonzero on any
// wrong answer or failed check.
func (b *bench) emit(s summary, m metrics, problems []string) int {
	correct := len(s.wrong) == 0 && len(problems) == 0
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, s.attempted, s.attempted - s.solved, m})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	return 2
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
