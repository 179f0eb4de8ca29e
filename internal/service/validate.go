package service

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/encode"
	"repro/internal/pbsolver"
)

// Validation bounds for JobSpec fields. They are deliberately generous —
// their job is to reject nonsense (negative budgets, absurd fan-outs)
// with a field-level error before a job ever reaches the queue, not to
// tune the solver.
const (
	// MaxPriority is the highest admission priority class (0 = normal).
	MaxPriority = 9
	// MaxK bounds the color bound K.
	MaxK = 1 << 20
	// MaxParallel bounds the cube-and-conquer worker fan-out.
	MaxParallel = 256
	// MaxCubeDepth bounds the cube branching depth.
	MaxCubeDepth = 32
	// MaxShareLBD bounds the clause-exchange LBD threshold (negative
	// values disable sharing and are always valid).
	MaxShareLBD = 1000
	// MaxTimeout bounds per-job solve budgets and deadlines.
	MaxTimeout = 24 * time.Hour
)

// FieldError locates one invalid JobSpec field.
type FieldError struct {
	// Field is the JSON field name ("k", "priority", ...).
	Field string `json:"field"`
	// Message says what is wrong with it.
	Message string `json:"message"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Field + ": " + e.Message }

// ValidationError aggregates every invalid field of one submission, so a
// client can fix them all in one round trip. The HTTP layer surfaces the
// list verbatim in the error envelope under code "invalid_spec".
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "service: invalid job spec: " + strings.Join(msgs, "; ")
}

// Validate checks every JobSpec field against its documented bounds and
// returns a *ValidationError listing all violations (nil when the spec is
// valid). Submit validates automatically; the HTTP layer calls it too so
// a bad submission is rejected with field-level detail before a graph is
// even parsed.
func (s JobSpec) Validate() error {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Message: fmt.Sprintf(format, args...)})
	}
	if s.K < 0 || s.K > MaxK {
		add("k", "must be in [0, %d]", MaxK)
	}
	switch {
	case s.SBP >= encode.SBPNone && s.SBP <= encode.SBPNUSC:
	case s.SBP == encode.SBPLIQuad || s.SBP == encode.SBPClique:
	default:
		add("sbp", "unknown SBP kind %d", s.SBP)
	}
	if s.Engine < pbsolver.EnginePBS || s.Engine > pbsolver.EngineBnB {
		add("engine", "unknown engine %d", s.Engine)
	}
	if s.Timeout < 0 || s.Timeout > MaxTimeout {
		add("timeout", "must be in [0, %v]", MaxTimeout)
	}
	if s.Deadline < 0 || s.Deadline > MaxTimeout {
		add("deadline", "must be in [0, %v]", MaxTimeout)
	}
	if s.Priority < 0 || s.Priority > MaxPriority {
		add("priority", "must be in [0, %d]", MaxPriority)
	}
	if s.GlueLBD < 0 {
		add("glue_lbd", "must be >= 0")
	}
	if s.ReduceInterval < 0 {
		add("reduce_interval", "must be >= 0")
	}
	if s.RestartBase < 0 {
		add("restart_base", "must be >= 0")
	}
	if s.Parallel < 0 || s.Parallel > MaxParallel {
		add("parallel", "must be in [0, %d]", MaxParallel)
	}
	if s.CubeDepth < 0 || s.CubeDepth > MaxCubeDepth {
		add("cube_depth", "must be in [0, %d]", MaxCubeDepth)
	}
	if s.ShareLBD > MaxShareLBD {
		add("share_lbd", "must be <= %d (negative disables sharing)", MaxShareLBD)
	}
	if errs != nil {
		return &ValidationError{Fields: errs}
	}
	return nil
}
