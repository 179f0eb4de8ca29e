package service

import (
	"fmt"
	"strings"

	"repro/internal/encode"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
)

// ParseSBP maps a user-facing SBP name ("none", "NU", "NU+SC", ...) to its
// construction kind. Shared by the CLI and the HTTP daemon.
func ParseSBP(name string) (encode.SBPKind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "NONE":
		return encode.SBPNone, nil
	case "NU":
		return encode.SBPNU, nil
	case "CA":
		return encode.SBPCA, nil
	case "LI":
		return encode.SBPLI, nil
	case "SC":
		return encode.SBPSC, nil
	case "NU+SC", "NUSC":
		return encode.SBPNUSC, nil
	}
	return 0, fmt.Errorf("unknown SBP %q", name)
}

// ParseSBPVariant maps a user-facing SBP-variant name to its enum value:
// "full" (or empty) or "canonset". The names of the removed involution
// and race variants ("involution", "inv", "race") stay accepted as
// aliases of "full", so requests that name them keep working; the
// variant never changes an answer.
func ParseSBPVariant(name string) (sbp.Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "full", "involution", "inv", "race":
		return sbp.VariantFull, nil
	case "canonset", "canon":
		return sbp.VariantCanonSet, nil
	}
	return 0, fmt.Errorf("unknown SBP variant %q", name)
}

// ParseSBPSpec parses the gcolor -sbp flag's combined syntax: a
// comma-separated list mixing at most one instance-independent
// construction name (ParseSBP) with at most one variant name
// (ParseSBPVariant), in any order. A bare variant ("canonset") keeps
// SBPNone; a bare kind ("NU") keeps VariantFull; "NU,canonset" sets both.
func ParseSBPSpec(s string) (encode.SBPKind, sbp.Variant, error) {
	kind, variant := encode.SBPNone, sbp.VariantFull
	kindSet, variantSet := false, false
	for _, tok := range strings.Split(s, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		if k, err := ParseSBP(tok); err == nil {
			if kindSet {
				return 0, 0, fmt.Errorf("duplicate SBP kind %q", tok)
			}
			kind, kindSet = k, true
			continue
		}
		v, err := ParseSBPVariant(tok)
		if err != nil {
			return 0, 0, fmt.Errorf("unknown SBP kind or variant %q", strings.TrimSpace(tok))
		}
		if variantSet {
			return 0, 0, fmt.Errorf("duplicate SBP variant %q", tok)
		}
		variant, variantSet = v, true
	}
	return kind, variant, nil
}

// ParseEngine maps a user-facing engine name to its configuration.
func ParseEngine(name string) (pbsolver.Engine, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "pbs", "pbs2", "pbsii":
		return pbsolver.EnginePBS, nil
	case "galena":
		return pbsolver.EngineGalena, nil
	case "pueblo":
		return pbsolver.EnginePueblo, nil
	case "bnb", "cplex":
		return pbsolver.EngineBnB, nil
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}
