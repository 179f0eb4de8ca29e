package sbp

import "fmt"

// Variant selects which symmetry-breaking predicate construction the
// instance-dependent layer emits. Both variants are partial breaks of the
// same group, so they are answer-invariant: each keeps at least the
// lex-least member of every orbit of assignments, hence the optimum (and
// satisfiability) of the formula is preserved. Like the engine search
// knobs, the variant is therefore excluded from the service's result-cache
// key — differently broken submissions of isomorphic graphs share one
// solve.
//
// The values are persisted in job journals, so each keeps its number.
// Journals may still hold 1 and 3 (the removed involution and race
// variants), which the service replays as VariantFull; do not reuse them.
type Variant int

const (
	// VariantFull emits the lex-leader predicate for every detected
	// generator (the Shatter flow, the construction this package started
	// with).
	VariantFull Variant = 0
	// VariantCanonSet emits lex-leader predicates over a precomputed
	// canonizing set of color permutations (per "Breaking Symmetries in
	// Graph Search with Canonizing Sets" / "Breaking Symmetries from a
	// Set-Covering Perspective"): no detection run is needed, the sets ship
	// as embedded data keyed by the color bound K (see cmd/sbpgen).
	VariantCanonSet Variant = 2
)

// String returns the wire name used by the -sbp flag, the gcolord JSON
// field, and the per-variant stats rows.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "full"
	case VariantCanonSet:
		return "canonset"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}
