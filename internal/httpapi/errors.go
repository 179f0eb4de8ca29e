package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
)

// Stable machine-readable error codes, the vocabulary of every non-2xx
// /v1 response (docs/API.md has the full table). Clients switch on the
// code, never on the message text.
const (
	// CodeInvalidSpec: the submission body is not valid JSON, contains
	// unknown fields, or has field values out of bounds (400).
	CodeInvalidSpec = "invalid_spec"
	// CodeGraphTooLarge: the submitted graph exceeds the daemon's
	// -max.vertices / -max.edges limits, or its formula would exceed
	// MaxFormulaSlots (413).
	CodeGraphTooLarge = "graph_too_large"
	// CodeQueueFull: the admission queue is at capacity; retry after
	// retry_after_ms (429).
	CodeQueueFull = "queue_full"
	// CodeTenantOverQuota: the tenant's rate limit or in-flight quota is
	// exhausted; retry after retry_after_ms (429).
	CodeTenantOverQuota = "tenant_over_quota"
	// CodeJobNotFound: no job with that id (404).
	CodeJobNotFound = "job_not_found"
	// CodeDeadlineExceeded: the job's end-to-end deadline elapsed before
	// it produced a result (504 on /result).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeJobCanceled: the job was canceled before producing a result
	// (410 on /result).
	CodeJobCanceled = "job_canceled"
	// CodeJobFailed: the job failed internally (500 on /result).
	CodeJobFailed = "job_failed"
	// CodeNotFound: unknown route or unconfigured endpoint (404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists, the HTTP method is wrong
	// (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnavailable: the service is shutting down (503).
	CodeUnavailable = "unavailable"
	// CodeDraining: the daemon is draining for shutdown — in-flight jobs
	// finish but no new work is admitted; retry against another instance
	// or after the restart (503 + Retry-After).
	CodeDraining = "draining"
	// CodeStoreDegraded: the persistent store is detached after write
	// failures and the daemon is running memory-only (503 on /v1/store;
	// the service itself keeps accepting jobs).
	CodeStoreDegraded = "store_degraded"
	// CodeInternal: unexpected server-side failure (500).
	CodeInternal = "internal"
)

// ErrorDetail is the body of the unified error envelope.
type ErrorDetail struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail; not part of the API contract.
	Message string `json:"message"`
	// RetryAfterMS suggests a resubmission delay (429 responses; also
	// mirrored in the Retry-After header, in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// RequestID echoes the request's X-Request-ID (generated by the
	// daemon when the client sent none).
	RequestID string `json:"request_id,omitempty"`
	// Fields lists per-field validation failures (invalid_spec only).
	Fields []service.FieldError `json:"fields,omitempty"`
}

// ErrorEnvelope is the JSON shape of every /v1 error response:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N}}
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// apiError writes the unified error envelope. retryAfter > 0 additionally
// sets the Retry-After header (rounded up to whole seconds, minimum 1).
func apiError(w http.ResponseWriter, r *http.Request, status int, detail ErrorDetail) {
	detail.RequestID = requestID(r)
	if detail.RetryAfterMS > 0 {
		secs := (detail.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: detail})
}

// retryMS converts a duration to the envelope's retry_after_ms field.
func retryMS(d time.Duration) int64 {
	ms := d.Milliseconds()
	if d > 0 && ms == 0 {
		ms = 1
	}
	return ms
}
