// Package httpx holds the small JSON-over-HTTP conventions shared by the
// control-plane services (controller, diagnoser, watchdog): structured
// error bodies and method guards, so that a misbehaving agent gets a
// machine-readable reason instead of free-text or a silent drop.
package httpx

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ErrorBody is the wire shape of every error response. Code is set only
// on errors a client is expected to act on by kind rather than report.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Error writes a JSON error body with the given status code.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	ErrorCode(w, status, "", format, args...)
}

// ErrorCode is Error with a machine-readable code in the body.
func ErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a flat struct cannot fail; ignore the writer's error as
	// net/http handlers conventionally do.
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// RequireMethod enforces the handler's method, answering 405 with an Allow
// header otherwise. Returns true when the request may proceed.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		Error(w, http.StatusMethodNotAllowed, "%s required, got %s", method, r.Method)
		return false
	}
	return true
}

// WriteJSON writes v with a 200 status and JSON content type.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}
