package metrics

import "unicode/utf8"

// TruncateQuery bounds the query text carried in a slow-query log
// record to 400 bytes, cutting on a rune boundary so the record stays
// valid UTF-8.
func TruncateQuery(text string) string {
	const max = 400
	if len(text) <= max {
		return text
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(text[cut]) {
		cut--
	}
	return text[:cut] + "..."
}
