package serve

// The one error-mapping table. Every typed failure the serving stack can
// produce maps here to exactly one (HTTP status, stable machine-readable
// code) pair, and every path — /v1 endpoints and requests served on behalf
// of a forwarding peer — consults this table and nothing else. Forwarded
// responses relay the owner's status and envelope verbatim, so a shed on
// the owning node reaches the client as the same single envelope it would
// have gotten locally: one wrap, by construction.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"serviceordering/internal/admit"
)

// apiCode is a stable machine-readable error class, carried in the /v1
// error envelope's "code" field.
type apiCode string

const (
	codeBadRequest    apiCode = "bad_request"    // malformed or invalid request document
	codeNotFound      apiCode = "not_found"      // unknown endpoint or disabled subsystem
	codeTimeout       apiCode = "timeout"        // caller's context ended mid-request
	codeUnprocessable apiCode = "unprocessable"  // valid document the planner cannot serve
	codeOverloaded    apiCode = "overloaded"     // admission shed; retryAfterSeconds set
	codeBackendFailed apiCode = "backend_failed" // service backend call failed
	codeInternal      apiCode = "internal"       // unreachable today; the envelope's floor
)

// codeStatus is the single code → HTTP status mapping.
var codeStatus = map[apiCode]int{
	codeBadRequest:    http.StatusBadRequest,
	codeNotFound:      http.StatusNotFound,
	codeTimeout:       http.StatusRequestTimeout,
	codeUnprocessable: http.StatusUnprocessableEntity,
	codeOverloaded:    http.StatusTooManyRequests,
	codeBackendFailed: http.StatusBadGateway,
	codeInternal:      http.StatusInternalServerError,
}

// classifyError maps an error from the optimize/execute paths to its code
// and, for sheds, the typed refusal whose reason and Retry-After the
// envelope carries.
func classifyError(err error) (apiCode, *admit.ShedError) {
	var se *admit.ShedError
	switch {
	case errors.As(err, &se):
		return codeOverloaded, se
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return codeTimeout, nil
	default:
		return codeUnprocessable, nil
	}
}

// retryAfterSeconds is a shed's Retry-After in whole seconds (the header's
// unit, rounded up so clients never come back early); zero without a shed.
func retryAfterSeconds(se *admit.ShedError) int64 {
	if se == nil {
		return 0
	}
	return int64((se.RetryAfter + time.Second - 1) / time.Second)
}

// appendV1Error appends the complete /v1 error envelope:
//
//	{"data":null,"error":{"code":"...","message":"...","reason":"...","retryAfterSeconds":N}}
//
// reason and retryAfterSeconds are present only when shed is non-nil —
// they only mean something on overloaded responses.
func appendV1Error(b []byte, code apiCode, msg string, shed *admit.ShedError) []byte {
	b = append(b, `{"data":null,"error":{"code":`...)
	b = appendJSONString(b, string(code))
	b = append(b, `,"message":`...)
	b = appendJSONString(b, msg)
	if shed != nil {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, string(shed.Reason))
		b = append(b, `,"retryAfterSeconds":`...)
		b = strconv.AppendInt(b, retryAfterSeconds(shed), 10)
	}
	b = append(b, `}}`...)
	return append(b, '\n')
}

// v1Error writes one enveloped error response. A shed additionally carries
// the Retry-After header, in the same unit and rounding as the body.
func (h *handler) v1Error(w http.ResponseWriter, code apiCode, msg string, shed *admit.ShedError) {
	bufp := h.getBuf()
	b := appendV1Error((*bufp)[:0], code, msg, shed)
	writeResponse(w, codeStatus[code], retryAfterSeconds(shed), b)
	h.putBuf(bufp, b)
}

// v1Fail writes err, classified through the table, as an enveloped error.
func (h *handler) v1Fail(w http.ResponseWriter, err error) {
	code, shed := classifyError(err)
	h.v1Error(w, code, err.Error(), shed)
}
