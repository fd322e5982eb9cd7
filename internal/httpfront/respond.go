package httpfront

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"scisparql/internal/engine"
)

// writeError emits the uniform JSON error body:
// {"error": message, "code": short-machine-code}. Stacks and internal
// detail never travel here — callers sanitize first.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// negotiate resolves the Accept header to a response media type for
// solution results. An absent header, */* or application/json accept
// the SPARQL-JSON default; text/csv selects CSV; anything else that
// matches nothing we produce is 406. CONSTRUCT results ignore this and
// produce Turtle (negotiated separately because the query form is only
// known after parsing).
func negotiate(accept string, isUpdate bool) (string, *httpError) {
	if isUpdate || accept == "" {
		return ctSPARQLJSON, nil
	}
	best, bestQ := "", -1.0
	for _, part := range strings.Split(accept, ",") {
		mt, q := parseAcceptPart(part)
		if q <= 0 {
			continue
		}
		var offer string
		switch mt {
		case ctSPARQLJSON, ctJSON, "application/*":
			offer = ctSPARQLJSON
		case ctCSV, "text/*":
			offer = ctCSV
		case ctTurtle:
			// Accepted so CONSTRUCT clients asking for Turtle are not
			// rejected up front; solution results still render JSON.
			offer = ctSPARQLJSON
		case "*/*":
			offer = ctSPARQLJSON
		default:
			continue
		}
		if q > bestQ {
			best, bestQ = offer, q
		}
	}
	if best == "" {
		return "", &httpError{http.StatusNotAcceptable, "not_acceptable",
			"supported result types: " + ctSPARQLJSON + ", " + ctCSV + ", " + ctTurtle + " (CONSTRUCT)"}
	}
	return best, nil
}

// parseAcceptPart splits one Accept list element into its media type
// and q-value (1 when unspecified, 0 when malformed).
func parseAcceptPart(part string) (string, float64) {
	fields := strings.Split(part, ";")
	mt := strings.ToLower(strings.TrimSpace(fields[0]))
	if mt == "" {
		return "", 0
	}
	q := 1.0
	for _, f := range fields[1:] {
		f = strings.TrimSpace(f)
		if v, ok := strings.CutPrefix(f, "q="); ok {
			parsed, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return mt, 0
			}
			q = parsed
		}
	}
	return mt, q
}

// parseLimitParams extracts the per-request guard tightening
// parameters: timeout (Go duration), max-rows, max-bindings.
func parseLimitParams(q url.Values) (engine.Limits, *httpError) {
	var lim engine.Limits
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return lim, &httpError{http.StatusBadRequest, "bad_request", "timeout: want a positive duration like 500ms"}
		}
		lim.Timeout = d
	}
	if v := q.Get("max-rows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return lim, &httpError{http.StatusBadRequest, "bad_request", "max-rows: want a positive integer"}
		}
		lim.MaxResultRows = n
	}
	if v := q.Get("max-bindings"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return lim, &httpError{http.StatusBadRequest, "bad_request", "max-bindings: want a positive integer"}
		}
		lim.MaxBindings = n
	}
	return lim, nil
}

// isTruthy interprets flag-style parameters: 1/true/yes/on.
func isTruthy(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// mergeValues overlays form fields onto URL query parameters (the URL
// wins on conflict, matching the protocol's precedence for
// form-encoded requests).
func mergeValues(urlQ, form url.Values) url.Values {
	out := url.Values{}
	for k, vs := range form {
		out[k] = vs
	}
	for k, vs := range urlQ {
		out[k] = vs
	}
	return out
}
