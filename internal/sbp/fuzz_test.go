package sbp_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pbsolver"
	"repro/internal/testutil"
)

// fuzzKinds are the eight instance-independent SBP kinds JobSpec.Validate
// accepts: the paper's six table rows plus the LI-quadratic and clique
// extensions.
var fuzzKinds = append(append([]encode.SBPKind(nil), encode.Kinds...), encode.SBPLIQuad, encode.SBPClique)

// FuzzSBPVariant cross-checks the lex-leader layer, under every SBP kind,
// against the brute-force chromatic oracle on arbitrary tiny graphs: the
// instance-dependent predicates must never change a definitive answer.
// Input encoding: byte 0 picks n in [3,6], byte 1 picks k in [2,4], byte
// 2's low bit is unused (so the committed corpus keeps its meaning) and
// its remaining bits pick the kind (fuzzKinds, modulo 8), and the
// remaining bytes are the upper-triangle edge bitmap.
func FuzzSBPVariant(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0xff})             // triangle, k=2, none: unsat
	f.Add([]byte{1, 1, 1, 0b101101})         // n=4, k=3, none
	f.Add([]byte{2, 2, 2, 0xaa, 0x55})       // n=5, k=4, NU
	f.Add([]byte{3, 0, 2, 0x00, 0x00, 0x01}) // n=6 sparse, k=2, NU
	f.Add([]byte{3, 2, 0, 0xff, 0xff, 0xff}) // n=6 dense, k=4, none: unsat
	f.Add([]byte{1, 1, 11, 0b101101})        // n=4, k=3, NU+SC
	f.Add([]byte{2, 2, 12, 0xaa, 0x55})      // n=5, k=4, LI-quadratic
	f.Add([]byte{2, 1, 15, 0x96, 0x69})      // n=5, k=3, clique
	// The committed corpus: seed-unsat is K4 at k=2 under none,
	// seed-petersenish n=5, k=3 under none, and seed-dense-k4 K6 at k=4
	// under NU (unsat).
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 3 + int(data[0]%4)
		k := 2 + int(data[1]%3)
		kind := fuzzKinds[int(data[2]>>1)%len(fuzzKinds)]
		g := graph.New("fuzz", n)
		bit := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				byteIdx := 3 + bit/8
				if byteIdx < len(data) && data[byteIdx]&(1<<(bit%8)) != 0 {
					g.AddEdge(a, b)
				}
				bit++
			}
		}
		chi := testutil.BruteForceChromatic(g)
		out := core.Solve(context.Background(), g, core.Config{
			K:                 k,
			SBP:               kind,
			InstanceDependent: true,
		})
		if chi <= k {
			if out.Result.Status != pbsolver.StatusOptimal {
				t.Fatalf("n=%d k=%d chi=%d %v: status = %v, want optimal",
					n, k, chi, kind, out.Result.Status)
			}
			if out.Chi != chi {
				t.Fatalf("n=%d k=%d %v: chi = %d, oracle says %d",
					n, k, kind, out.Chi, chi)
			}
			if err := testutil.CheckColoring(g, out.Coloring, k); err != nil {
				t.Fatalf("n=%d k=%d %v: witness: %v", n, k, kind, err)
			}
		} else if out.Result.Status != pbsolver.StatusUnsat {
			t.Fatalf("n=%d k=%d chi=%d %v: status = %v, want unsat",
				n, k, chi, kind, out.Result.Status)
		}
	})
}
