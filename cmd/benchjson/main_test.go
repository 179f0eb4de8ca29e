package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestParseKeysIndependentOfGomaxprocs feeds the same benchmarks as go
// test prints them on one proc (no suffix) and on four (-4 on every line):
// both transcripts must yield the same keys, with the sub-benchmark's own
// "-4" kept, and record the proc count.
func TestParseKeysIndependentOfGomaxprocs(t *testing.T) {
	oneProc := `goos: linux
pkg: repro
BenchmarkTable1 	       1	  16958752 ns/op	 5854208 B/op	   26546 allocs/op
BenchmarkParallelSolve/sequential 	       1	  9000000 ns/op
BenchmarkParallelSolve/parallel-4 	       1	  13000000 ns/op	 7.000 cubes/op
PASS
`
	fourProcs := `goos: linux
pkg: repro
BenchmarkTable1-4 	       1	  16958752 ns/op	 5854208 B/op	   26546 allocs/op
BenchmarkParallelSolve/sequential-4 	       1	  9000000 ns/op
BenchmarkParallelSolve/parallel-4-4 	       1	  5000000 ns/op	 7.000 cubes/op
PASS
`
	want := []string{"BenchmarkTable1", "BenchmarkParallelSolve/sequential", "BenchmarkParallelSolve/parallel-4"}
	for _, tc := range []struct {
		name  string
		in    string
		procs int
	}{{"one proc", oneProc, 1}, {"four procs", fourProcs, 4}} {
		snap, err := parse(bufio.NewScanner(strings.NewReader(tc.in)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if snap.Gomaxprocs != tc.procs {
			t.Errorf("%s: gomaxprocs = %d, want %d", tc.name, snap.Gomaxprocs, tc.procs)
		}
		if len(snap.Results) != len(want) {
			t.Fatalf("%s: %d results, want %d", tc.name, len(snap.Results), len(want))
		}
		for i, r := range snap.Results {
			if r.Name != want[i] {
				t.Errorf("%s: result %d keyed %q, want %q", tc.name, i, r.Name, want[i])
			}
		}
		if got := snap.Results[2].Extra["cubes/op"]; got != 7 {
			t.Errorf("%s: cubes/op = %v, want 7", tc.name, got)
		}
	}
}
