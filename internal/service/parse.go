package service

import (
	"fmt"
	"strings"

	"repro/internal/encode"
	"repro/internal/pbsolver"
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

// ParseSBPVariant checks a user-facing SBP-variant name. The predicate
// layer has one lex-leader construction, "full"; the names of the removed
// variants ("canonset", "canon", "involution", "inv", "race") and the
// empty string stay accepted as aliases of it, so older requests keep
// working. Any other name is an error.
func ParseSBPVariant(name string) error {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "full", "canonset", "canon", "involution", "inv", "race":
		return nil
	}
	return fmt.Errorf("unknown SBP variant %q", name)
}

// ParseSBPSpec parses the gcolor -sbp flag's combined syntax: a
// comma-separated list mixing at most one instance-independent
// construction name (ParseSBP) with at most one variant name
// (ParseSBPVariant), in any order, and returns the construction (SBPNone
// when only a variant is named). Every variant name selects the one
// lex-leader construction, so only its validity matters.
func ParseSBPSpec(s string) (encode.SBPKind, error) {
	kind := encode.SBPNone
	kindSet, variantSet := false, false
	for _, tok := range strings.Split(s, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		if k, err := ParseSBP(tok); err == nil {
			if kindSet {
				return 0, fmt.Errorf("duplicate SBP kind %q", tok)
			}
			kind, kindSet = k, true
			continue
		}
		if err := ParseSBPVariant(tok); err != nil {
			return 0, fmt.Errorf("unknown SBP kind or variant %q", strings.TrimSpace(tok))
		}
		if variantSet {
			return 0, fmt.Errorf("duplicate SBP variant %q", tok)
		}
		variantSet = true
	}
	return kind, nil
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
