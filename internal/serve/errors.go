package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/feedback"
	"repro/internal/plan"
)

// Error is the structured error envelope every surface refuses with —
// each HTTP endpoint, the stream transport's error frame, the router in
// front of either: a human-readable message plus a stable
// machine-readable code (see the Code* constants). Batch endpoints
// additionally set Plan to the index of the offending plan. RequestID
// echoes the request's X-Request-ID (client-supplied or generated), the
// handle that joins a failure response to the server's slow-trace and
// error logs; a stream frame carries neither.
type Error struct {
	Message   string `json:"error"`
	Code      string `json:"code"`
	Plan      *int   `json:"plan,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Status is the HTTP status e is answered with.
func (e *Error) Status() int { return StatusForCode(e.Code) }

// Stable error codes for the wire. Clients should branch on these, not
// on message text.
const (
	CodeBadRequest      = "bad_request"
	CodeUnknownResource = "unknown_resource"
	CodeUnknownOperator = "unknown_operator"
	CodeBadPlan         = "bad_plan"
	CodeUnknownSchema   = "unknown_schema"
	CodeNoHistory       = "no_history"
	CodeConflict        = "conflict"
	CodeModeMismatch    = "mode_mismatch"
	CodeUnavailable     = "unavailable"
	CodeTimeout         = "timeout"
	CodeForbidden       = "forbidden"
	CodeBatchTooLarge   = "batch_too_large"
	CodeInternal        = "internal"
)

// codeStatus is the one place a code gets its HTTP status; README's
// error table lists the same pairs.
var codeStatus = map[string]int{
	CodeBadRequest:      http.StatusBadRequest,
	CodeUnknownResource: http.StatusBadRequest,
	CodeUnknownOperator: http.StatusBadRequest,
	CodeBadPlan:         http.StatusBadRequest,
	CodeUnknownSchema:   http.StatusNotFound,
	CodeNoHistory:       http.StatusNotFound,
	CodeConflict:        http.StatusConflict,
	CodeModeMismatch:    http.StatusConflict,
	CodeUnavailable:     http.StatusServiceUnavailable,
	CodeTimeout:         http.StatusGatewayTimeout,
	CodeForbidden:       http.StatusForbidden,
	CodeBatchTooLarge:   http.StatusRequestEntityTooLarge,
	CodeInternal:        http.StatusInternalServerError,
}

// StatusForCode maps a stable wire error code to the HTTP status it is
// answered with; unknown codes map to 500.
func StatusForCode(code string) int {
	if status, ok := codeStatus[code]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// ErrorFor maps a service-layer error to its envelope: the error's
// message under the code its sentinel calls for, bad_request when it
// wraps none.
func ErrorFor(err error) *Error {
	code := CodeBadRequest
	switch {
	case errors.Is(err, ErrUnknownResource):
		code = CodeUnknownResource
	case errors.Is(err, ErrModeMismatch):
		code = CodeModeMismatch
	case errors.Is(err, ErrNoModel):
		code = CodeUnknownSchema
	case errors.Is(err, ErrNoHistory):
		code = CodeNoHistory
	case errors.Is(err, ErrRollbackConflict):
		code = CodeConflict
	case errors.Is(err, ErrClosed), errors.Is(err, feedback.ErrClosed):
		code = CodeUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = CodeTimeout
	case errors.Is(err, plan.ErrUnknownOp):
		code = CodeUnknownOperator
	}
	return &Error{Message: err.Error(), Code: code}
}

// BadBody is the refusal of a request body that could not be read or
// decoded.
func BadBody(err error) *Error {
	return &Error{Message: "bad request body: " + err.Error(), Code: CodeBadRequest}
}

// EncodeFailed is the refusal of an answer that does not encode — a NaN
// or infinite number in it: 500 internal on every surface, in the same
// words.
func EncodeFailed(err error) *Error {
	return &Error{Message: "encode response: " + err.Error(), Code: CodeInternal}
}

// planErrCode classifies a plan.DecodeJSON failure: a plan naming an
// operator this build does not know is distinguished from structurally
// bad plans so clients can react (e.g. strip unsupported operators).
func planErrCode(err error) string {
	if errors.Is(err, plan.ErrUnknownOp) {
		return CodeUnknownOperator
	}
	return CodeBadPlan
}

// WriteError answers r with e — at its code's status, stamped with the
// request's ID, and with Retry-After: 1 when the code is unavailable —
// so every endpoint, and a proxy in front of the service, refuses in
// the same shape. e itself is not written to.
func WriteError(w http.ResponseWriter, r *http.Request, e *Error) {
	body := *e
	body.RequestID = RequestIDFrom(r.Context())
	if e.Code == CodeUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, r, e.Status(), &body)
}
