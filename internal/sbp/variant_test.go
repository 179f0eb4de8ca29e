// Property suite for the lex-leader layer under the SBP-variant names the
// service accepts: whichever name a request gives, the construction it
// runs must preserve the chromatic number against the brute-force oracle
// (on seeded random and transitive families, with and without
// relabeling), and its partial break must keep at least one model of each
// satisfiable instance. The tests live in an external package because
// they drive the layer through core.Solve, which imports sbp.
package sbp_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/service"
	"repro/internal/testutil"
)

// variantNames are SBP-variant names the service accepts: the one
// construction, full, and the names of removed variants that alias it.
// The instance-level properties run under the first two.
var variantNames = []string{"full", "canonset", "involution", "race"}

// oracleFamilies are the instances the chromatic-preservation property is
// checked on: seeded G(n,p) graphs plus the transitive families whose
// symmetry groups give the variants real work.
func oracleFamilies() []*graph.Graph {
	gs := []*graph.Graph{
		graph.Cycle(5),    // chi 3, dihedral symmetry
		graph.Cycle(6),    // chi 2
		graph.Complete(4), // chi 4, full S_4
		graph.Petersen(),  // chi 3, vertex-transitive
	}
	rng := rand.New(rand.NewSource(7))
	for n := 5; n <= 7; n++ {
		gs = append(gs, testutil.RandomGraph(rng, fmt.Sprintf("rand-%d", n), n, 0.5))
	}
	return gs
}

// relabel returns a copy of g with vertex v renamed perm[v].
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	out := graph.New(g.Name()+"-relabeled", g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e[0]], perm[e[1]])
	}
	return out
}

// rotation is the deterministic relabeling used by the ± relabeling leg.
func rotation(n int) []int {
	perm := make([]int, n)
	for v := range perm {
		perm[v] = (v + 1) % n
	}
	return perm
}

// solveVariant solves g with instance-dependent SBPs after checking that
// the variant name is accepted as a request's sbp_variant is.
func solveVariant(t *testing.T, g *graph.Graph, k int, name string, kind encode.SBPKind) core.Outcome {
	t.Helper()
	if err := service.ParseSBPVariant(name); err != nil {
		t.Fatalf("ParseSBPVariant(%q): %v", name, err)
	}
	return core.Solve(context.Background(), g, core.Config{
		K:                 k,
		SBP:               kind,
		InstanceDependent: true,
	})
}

// TestVariantsPreserveChromaticNumber is the oracle property: under every
// variant name the service accepts, on every family member and its
// relabeled twin, the solver must prove exactly the brute-force chromatic
// number. Predicates that cut a whole orbit of colorings would surface
// here as a wrong optimum or a bogus UNSAT.
func TestVariantsPreserveChromaticNumber(t *testing.T) {
	for _, g := range oracleFamilies() {
		chi := testutil.BruteForceChromatic(g)
		for _, twin := range []*graph.Graph{g, relabel(g, rotation(g.N()))} {
			for _, name := range variantNames {
				t.Run(fmt.Sprintf("%s/%s", twin.Name(), name), func(t *testing.T) {
					out := solveVariant(t, twin, chi+2, name, encode.SBPNone)
					if out.Result.Status != pbsolver.StatusOptimal {
						t.Fatalf("status = %v, want optimal", out.Result.Status)
					}
					if out.Chi != chi {
						t.Fatalf("chi = %d, oracle says %d", out.Chi, chi)
					}
					if err := testutil.CheckColoring(twin, out.Coloring, chi+2); err != nil {
						t.Fatalf("witness coloring: %v", err)
					}
				})
			}
		}
	}
}

// TestVariantsKeepSatisfiableInstances is the model-retention property at
// the instance level: a satisfiable decision instance (k >= chi) must stay
// satisfiable under the predicates, and an unsatisfiable one (k < chi)
// must stay unsatisfiable — partial breaks may thin the model space,
// never empty or grow it.
func TestVariantsKeepSatisfiableInstances(t *testing.T) {
	for _, g := range oracleFamilies() {
		chi := testutil.BruteForceChromatic(g)
		for _, k := range []int{chi - 1, chi, chi + 1} {
			if k < 1 {
				continue
			}
			for _, name := range variantNames[:2] {
				t.Run(fmt.Sprintf("%s/k=%d/%s", g.Name(), k, name), func(t *testing.T) {
					out := solveVariant(t, g, k, name, encode.SBPNone)
					if k < chi {
						if out.Result.Status != pbsolver.StatusUnsat {
							t.Fatalf("k=%d < chi=%d: status = %v, want unsat", k, chi, out.Result.Status)
						}
						return
					}
					if out.Result.Status != pbsolver.StatusOptimal || out.Chi != chi {
						t.Fatalf("k=%d >= chi=%d: status = %v chi = %d", k, chi, out.Result.Status, out.Chi)
					}
				})
			}
		}
	}
}

// TestVariantsAgreeWithInstanceIndependentSBPs pins the interplay with the
// paper's instance-independent constructions: combining the lex-leader
// layer with an SBPKind, the color-ordering ones included, must leave the
// answer unchanged.
func TestVariantsAgreeWithInstanceIndependentSBPs(t *testing.T) {
	g := graph.Petersen()
	const chi = 3
	for _, kind := range []encode.SBPKind{encode.SBPNone, encode.SBPNU, encode.SBPNUSC} {
		for _, name := range variantNames[:2] {
			t.Run(fmt.Sprintf("%v/%s", kind, name), func(t *testing.T) {
				out := solveVariant(t, g, chi+2, name, kind)
				if out.Result.Status != pbsolver.StatusOptimal || out.Chi != chi {
					t.Fatalf("status = %v chi = %d, want optimal chi %d", out.Result.Status, out.Chi, chi)
				}
			})
		}
	}
}
