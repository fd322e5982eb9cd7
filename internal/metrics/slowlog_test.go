package metrics

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTruncateQuery(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"short input is untouched", "SELECT * WHERE { ?s ?p ?o }", "SELECT * WHERE { ?s ?p ?o }"},
		{"exactly 400 bytes is untouched", strings.Repeat("a", 400), strings.Repeat("a", 400)},
		{"ASCII is cut at byte 400", strings.Repeat("a", 500), strings.Repeat("a", 400) + "..."},
		// "é" is two bytes: after 399 ASCII bytes it occupies bytes
		// 399-400, so a cut at 400 would split it.
		{"rune straddling byte 400 is dropped whole", strings.Repeat("a", 399) + "é" + strings.Repeat("b", 50), strings.Repeat("a", 399) + "..."},
		{"rune ending at byte 400 is kept", strings.Repeat("a", 398) + "é" + strings.Repeat("b", 50), strings.Repeat("a", 398) + "é..."},
	} {
		got := TruncateQuery(tc.in)
		if got != tc.want {
			t.Errorf("%s: got %d bytes ending %q, want %d bytes ending %q",
				tc.name, len(got), got[max(0, len(got)-8):], len(tc.want), tc.want[max(0, len(tc.want)-8):])
		}
		if !utf8.ValidString(got) {
			t.Errorf("%s: result is not valid UTF-8", tc.name)
		}
	}
}
