// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON snapshot on stdout, keyed by benchmark name without the
// -GOMAXPROCS suffix (recorded separately as gomaxprocs). It exists so the
// repository can commit machine-readable perf baselines (BENCH_baseline.json,
// written by `make bench-baseline`) and future PRs can diff ns/op and
// allocs/op against them.
//
// Usage:
//
//	go test -bench=. -benchmem -count=1 -benchtime=1x | benchjson > BENCH_baseline.json
//	benchjson -compare BENCH_baseline.json BENCH_current.json
//
// The -compare form prints a side-by-side table of two snapshots (ns/op,
// allocs/op, and any custom metrics such as nodes/op) with the relative
// change per benchmark. It is informational and always exits 0 on valid
// input: single-iteration CI runs are too noisy to gate on, the table
// exists so perf movement is visible in the job log and artifact.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark line. Fields that the bench did not report are
// left at zero (e.g. AllocsPerOp without -benchmem).
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the full file: environment header lines plus all results.
// Gomaxprocs is the -N suffix go test appended to every benchmark name (1
// when it appended none); result names are stored without it.
type Snapshot struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Gomaxprocs int      `json:"gomaxprocs,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	if len(os.Args) == 4 && os.Args[1] == "-compare" {
		if err := compare(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchjson < bench-output  |  benchjson -compare baseline.json current.json")
		os.Exit(2)
	}
	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{}
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBenchLine(line)
			if ok {
				snap.Results = append(snap.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	stripProcs(snap)
	return snap, nil
}

// stripProcs removes the -GOMAXPROCS suffix go test appends to every
// benchmark name when GOMAXPROCS > 1, so keys pair across machines, and
// records the count. Only a suffix that every line shares is the
// runtime's: a sub-benchmark named "parallel-4" keeps its digits on a
// one-proc run, where go test appends nothing.
func stripProcs(snap *Snapshot) {
	snap.Gomaxprocs = 1
	suffix := ""
	for i, r := range snap.Results {
		j := strings.LastIndex(r.Name, "-")
		if j <= 0 || (i > 0 && r.Name[j:] != suffix) {
			return
		}
		suffix = r.Name[j:]
	}
	n, err := strconv.Atoi(suffix[1:])
	if err != nil || n < 1 {
		return
	}
	snap.Gomaxprocs = n
	for i := range snap.Results {
		snap.Results[i].Name = strings.TrimSuffix(snap.Results[i].Name, suffix)
	}
}

// parseBenchLine parses "BenchmarkName-8  10  123 ns/op  45 B/op  6 allocs/op
// 7.0 clauses" style lines into a Result.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Result{}, false
	}
	name := fields[0]
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	// Remaining fields alternate value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = int64(val)
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = val
		}
	}
	return r, true
}

// loadSnapshot reads a JSON snapshot previously produced by this command.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// compare prints baseline vs current per benchmark: ns/op with relative
// change, allocs/op, and every custom metric either side reported (a custom
// metric like nodes/op is deterministic, so its delta is the signal even
// when single-iteration timings jitter). Benchmarks present on only one
// side are listed as new/gone rather than failing the run.
func compare(basePath, curPath string) error {
	base, err := loadSnapshot(basePath)
	if err != nil {
		return err
	}
	cur, err := loadSnapshot(curPath)
	if err != nil {
		return err
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	curByName := make(map[string]Result, len(cur.Results))
	names := make([]string, 0, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
		names = append(names, r.Name)
	}
	for _, r := range base.Results {
		if _, ok := curByName[r.Name]; !ok {
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)

	fmt.Printf("gomaxprocs: base %d, current %d\n", base.Gomaxprocs, cur.Gomaxprocs)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "BENCHMARK\tBASE ns/op\tCUR ns/op\tΔ ns/op\tBASE allocs\tCUR allocs\tEXTRA")
	for _, name := range names {
		b, inBase := baseByName[name]
		c, inCur := curByName[name]
		switch {
		case !inBase:
			fmt.Fprintf(w, "%s\t-\t%.0f\tnew\t-\t%d\t%s\n", name, c.NsPerOp, c.AllocsPerOp, extraCell(Result{}, c))
		case !inCur:
			fmt.Fprintf(w, "%s\t%.0f\t-\tgone\t%d\t-\t\n", name, b.NsPerOp, b.AllocsPerOp)
		default:
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%s\t%d\t%d\t%s\n",
				name, b.NsPerOp, c.NsPerOp, pctDelta(b.NsPerOp, c.NsPerOp),
				b.AllocsPerOp, c.AllocsPerOp, extraCell(b, c))
		}
	}
	return w.Flush()
}

// pctDelta renders the relative change from base to cur.
func pctDelta(base, cur float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (cur-base)/base*100)
}

// extraCell renders the union of both sides' custom metrics as
// "unit base->cur" pairs, sorted by unit for stable output.
func extraCell(base, cur Result) string {
	units := map[string]bool{}
	for u := range base.Extra {
		units[u] = true
	}
	for u := range cur.Extra {
		units[u] = true
	}
	sorted := make([]string, 0, len(units))
	for u := range units {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	parts := make([]string, 0, len(sorted))
	for _, u := range sorted {
		bv, inB := base.Extra[u]
		cv, inC := cur.Extra[u]
		switch {
		case inB && inC:
			parts = append(parts, fmt.Sprintf("%s %g->%g", u, bv, cv))
		case inC:
			parts = append(parts, fmt.Sprintf("%s %g", u, cv))
		default:
			parts = append(parts, fmt.Sprintf("%s %g->?", u, bv))
		}
	}
	return strings.Join(parts, ", ")
}
