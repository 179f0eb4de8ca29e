// Property suite for the SBP variants: every variant must preserve the
// chromatic number against the brute-force oracle (on seeded random and
// transitive families, with and without relabeling), and every partial
// break must keep at least one model of each satisfiable instance. The
// tests live in an external package because they drive the variants
// through core.Solve, which imports sbp.
package sbp_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/service"
	"repro/internal/symgraph"
	"repro/internal/testutil"
)

// allVariants are the two constructions; both must produce identical
// answers.
var allVariants = []sbp.Variant{sbp.VariantFull, sbp.VariantCanonSet}

// variantNames are the wire names the service accepts for the variant
// knob: the two constructions plus the legacy names of the removed
// involution and race variants, which resolve to full.
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

func solveVariant(t *testing.T, g *graph.Graph, k int, v sbp.Variant, kind encode.SBPKind) core.Outcome {
	t.Helper()
	return core.Solve(context.Background(), g, core.Config{
		K:                 k,
		SBP:               kind,
		SBPVariant:        v,
		InstanceDependent: true,
	})
}

// TestVariantsPreserveChromaticNumber is the oracle property: under every
// variant name the service accepts (legacy aliases included, resolved as
// a request's sbp_variant is), on every family member and its relabeled
// twin, the solver must prove exactly the brute-force chromatic number. A
// variant that cut a whole orbit of colorings would surface here as a
// wrong optimum or a bogus UNSAT.
func TestVariantsPreserveChromaticNumber(t *testing.T) {
	for _, g := range oracleFamilies() {
		chi := testutil.BruteForceChromatic(g)
		for _, twin := range []*graph.Graph{g, relabel(g, rotation(g.N()))} {
			for _, name := range variantNames {
				t.Run(fmt.Sprintf("%s/%s", twin.Name(), name), func(t *testing.T) {
					v, err := service.ParseSBPVariant(name)
					if err != nil {
						t.Fatalf("ParseSBPVariant(%q): %v", name, err)
					}
					out := solveVariant(t, twin, chi+2, v, encode.SBPNone)
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
// satisfiable under every variant's predicates, and an unsatisfiable one
// (k < chi) must stay unsatisfiable — partial breaks may thin the model
// space, never empty or grow it.
func TestVariantsKeepSatisfiableInstances(t *testing.T) {
	for _, g := range oracleFamilies() {
		chi := testutil.BruteForceChromatic(g)
		for _, k := range []int{chi - 1, chi, chi + 1} {
			if k < 1 {
				continue
			}
			for _, v := range allVariants {
				t.Run(fmt.Sprintf("%s/k=%d/%s", g.Name(), k, v), func(t *testing.T) {
					out := solveVariant(t, g, k, v, encode.SBPNone)
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
// paper's instance-independent constructions: combining any variant with
// any SBPKind (including the color-ordering ones that break the very
// symmetries the canonizing set lifts) must leave the answer unchanged.
func TestVariantsAgreeWithInstanceIndependentSBPs(t *testing.T) {
	g := graph.Petersen()
	const chi = 3
	for _, kind := range []encode.SBPKind{encode.SBPNone, encode.SBPNU, encode.SBPNUSC} {
		for _, v := range allVariants {
			t.Run(fmt.Sprintf("%v/%s", kind, v), func(t *testing.T) {
				out := solveVariant(t, g, chi+2, v, kind)
				if out.Result.Status != pbsolver.StatusOptimal || out.Chi != chi {
					t.Fatalf("status = %v chi = %d, want optimal chi %d", out.Result.Status, out.Chi, chi)
				}
			})
		}
	}
}

// liftColorPerm mirrors core's canon-set lifting for the direct
// orbit-retention check: σ acts on color values of the encoding.
func liftColorPerm(enc *encode.Encoding, cp []int) symgraph.LitPerm {
	lp := symgraph.NewIdentityPerm(enc.F.NumVars)
	for v := 0; v < enc.G.N(); v++ {
		for j := 0; j < enc.K; j++ {
			lp.Img[enc.X(v, j)] = cnf.PosLit(enc.X(v, cp[j]))
		}
	}
	for j := 0; j < enc.K; j++ {
		lp.Img[enc.Y(j)] = cnf.PosLit(enc.Y(cp[j]))
	}
	return lp
}

// properColorings enumerates every proper k-coloring of g.
func properColorings(g *graph.Graph, k int) [][]int {
	var out [][]int
	col := make([]int, g.N())
	var rec func(v int)
	rec = func(v int) {
		if v == g.N() {
			out = append(out, append([]int(nil), col...))
			return
		}
	next:
		for c := 0; c < k; c++ {
			for _, w := range g.Neighbors(v) {
				if w < v && col[w] == c {
					continue next
				}
			}
			col[v] = c
			rec(v + 1)
		}
	}
	rec(0)
	return out
}

// colorOrbitKey identifies a coloring's orbit under color permutations by
// its first-occurrence relabeling pattern.
func colorOrbitKey(col []int) string {
	label := map[int]int{}
	key := make([]byte, len(col))
	for i, c := range col {
		l, ok := label[c]
		if !ok {
			l = len(label)
			label[c] = l
		}
		key[i] = byte(l)
	}
	return string(key)
}

// TestCanonSetKeepsOrbitRepresentatives is the sharp model-retention
// property for the canonizing set, where the orbit structure is known
// exactly: after adding the canon-set predicates, every orbit of proper
// colorings under color permutations must keep at least one member that
// still extends to a model. Checked by pinning each candidate coloring
// with unit clauses and asking the solver whether the pinned formula is
// satisfiable.
func TestCanonSetKeepsOrbitRepresentatives(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(4), graph.Cycle(5), graph.Complete(3)} {
		for _, k := range []int{3, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", g.Name(), k), func(t *testing.T) {
				orbits := map[string][][]int{}
				for _, col := range properColorings(g, k) {
					key := colorOrbitKey(col)
					orbits[key] = append(orbits[key], col)
				}
				if len(orbits) == 0 {
					t.Fatalf("no proper colorings to test")
				}
				// pinnedSatisfiable rebuilds the encoding + canon-set
				// predicates fresh (pb.Formula has no clone) and pins the
				// candidate coloring with unit clauses.
				pinnedSatisfiable := func(col []int) bool {
					enc := encode.Build(g, k, encode.SBPNone)
					var perms []symgraph.LitPerm
					for _, cp := range sbp.CanonSet(k) {
						lp := liftColorPerm(enc, cp)
						if !symgraph.VerifyLitPerm(enc.F, lp) {
							t.Fatalf("canon-set perm %v failed verification on SBPNone", cp)
						}
						perms = append(perms, lp)
					}
					if st := sbp.AddSBPs(enc.F, perms, sbp.Options{}); st.Generators == 0 {
						t.Fatalf("no predicates emitted")
					}
					for v, c := range col {
						for j := 0; j < k; j++ {
							lit := cnf.PosLit(enc.X(v, j))
							if j != c {
								lit = lit.Neg()
							}
							enc.F.AddClause(lit)
						}
					}
					res := pbsolver.Optimize(context.Background(), enc.F, pbsolver.Options{})
					return res.Status == pbsolver.StatusOptimal || res.Status == pbsolver.StatusSat
				}
				for key, members := range orbits {
					kept := false
					for _, col := range members {
						if pinnedSatisfiable(col) {
							kept = true
							break
						}
					}
					if !kept {
						t.Fatalf("orbit %q lost all %d members", key, len(members))
					}
				}
			})
		}
	}
}

// TestCanonSetData pins the embedded canonizing-set data: every committed
// band decodes and validates, generation is deterministic (the CI
// staleness gate depends on it), and color bounds outside the data fall
// back to the synthesized set.
func TestCanonSetData(t *testing.T) {
	bands := sbp.EmbeddedCanonSetBands()
	if len(bands) == 0 {
		t.Fatalf("no embedded bands")
	}
	for _, k := range bands {
		set := sbp.CanonSet(k)
		if len(set) == 0 {
			t.Fatalf("k=%d: empty embedded set", k)
		}
		for _, p := range set {
			if len(p) != k {
				t.Fatalf("k=%d: perm %v has wrong length", k, p)
			}
		}
	}
	// Round-trip through the shared serializer.
	sets := map[int][][]int{bands[0]: sbp.CanonSet(bands[0])}
	data, err := sbp.EncodeCanonSets(sets)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := sbp.DecodeCanonSets(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != 1 || len(back[bands[0]]) != len(sets[bands[0]]) {
		t.Fatalf("round trip changed the data")
	}
	// Determinism: regeneration must be byte-identical.
	a := fmt.Sprint(sbp.GreedyCanonSet(4, 0))
	b := fmt.Sprint(sbp.GreedyCanonSet(4, 0))
	if a != b {
		t.Fatalf("GreedyCanonSet(4) not deterministic:\n%s\n%s", a, b)
	}
	// Fallback outside the embedded bands.
	const bigK = 99
	fallback := sbp.CanonSet(bigK)
	if len(fallback) == 0 {
		t.Fatalf("no fallback set for k=%d", bigK)
	}
	for _, p := range fallback {
		if len(p) != bigK {
			t.Fatalf("fallback perm has length %d, want %d", len(p), bigK)
		}
	}
	if sbp.CanonSet(1) != nil {
		t.Fatalf("k=1 should have no set")
	}
}

// TestVariantsAgreeOnBenchmarks is the acceptance check behind
// `gcolor -sbp canonset`: on the example instances the canonizing-set
// variant must report the chromatic number VariantFull proves.
func TestVariantsAgreeOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark instances are slow under -short")
	}
	for _, name := range []string{"myciel3", "queen5_5"} {
		g, err := graph.Benchmark(name)
		if err != nil {
			t.Fatalf("benchmark %s: %v", name, err)
		}
		ref := solveVariant(t, g, 8, sbp.VariantFull, encode.SBPNone)
		if ref.Result.Status != pbsolver.StatusOptimal {
			t.Fatalf("%s: full variant status = %v", name, ref.Result.Status)
		}
		out := solveVariant(t, g, 8, sbp.VariantCanonSet, encode.SBPNone)
		if out.Result.Status != pbsolver.StatusOptimal || out.Chi != ref.Chi {
			t.Fatalf("%s/canonset: status = %v chi = %d, full proved %d",
				name, out.Result.Status, out.Chi, ref.Chi)
		}
	}
}
