package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIRI
	tPName
	tVar
	tBlank
	tString
	tInt
	tDec
	tDbl
	tLang
	tWord  // bare identifier: keywords, builtin names, a/true/false
	tPunct // structural characters and operators
)

// tok is one token; off is the byte offset of its first character, from
// which an error about it computes its line and column.
type tok struct {
	kind tokKind
	text string
	off  int
}

func (t tok) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// isWord reports a case-insensitive keyword match.
func (t tok) isWord(kw string) bool {
	return t.kind == tWord && strings.EqualFold(t.text, kw)
}

func (t tok) isPunct(s string) bool {
	return t.kind == tPunct && t.text == s
}

// sLexer scans SPARQL and Turtle text alike: Turtle 1.1 reuses
// SPARQL's terminals, so both readers share one set of token rules. It
// steps over ASCII name characters and spaces by the ascii table and
// decodes a rune only at a byte of 0x80 or more.
type sLexer struct {
	src    string
	pos    int
	syntax string // names the grammar in error messages: "sciSPARQL" or "turtle"
}

// The classes of an ASCII byte in the ascii table.
const (
	cSpace = 1 << iota // unicode.IsSpace
	cName              // isNameChar: a letter, a digit, '_' or '-'
)

var ascii = func() (t [256]uint8) {
	for c := range utf8.RuneSelf {
		if unicode.IsSpace(rune(c)) {
			t[c] |= cSpace
		}
		if isNameChar(rune(c)) {
			t[c] |= cName
		}
	}
	return t
}()

func newSLexer(src, syntax string) *sLexer { return &sLexer{src: src, syntax: syntax} }

func (l *sLexer) errorf(format string, args ...any) error {
	return l.errorAt(l.pos, format, args...)
}

// errorAt builds an error at byte offset off, which it places by line
// (one more than the newlines before it) and column (one more than the
// runes since the last of them).
func (l *sLexer) errorAt(off int, format string, args ...any) error {
	before := l.src[:off]
	line := 1 + strings.Count(before, "\n")
	col := 1 + utf8.RuneCountInString(before[strings.LastIndexByte(before, '\n')+1:])
	return fmt.Errorf("%s: line %d col %d: %s", l.syntax, line, col, fmt.Sprintf(format, args...))
}

// runeAt decodes the rune at byte offset i and its width, -1 at the
// end of input; an ASCII byte is its own rune.
func (l *sLexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return -1, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *sLexer) peekAt(off int) rune { r, _ := l.runeAt(l.pos + off); return r }

func (l *sLexer) peek() rune { return l.peekAt(0) }

func (l *sLexer) advance() rune {
	r, w := l.runeAt(l.pos)
	l.pos += w
	return r
}

// skip steps over the run of ASCII bytes of class c at the position.
func (l *sLexer) skip(c uint8) {
	for l.pos < len(l.src) && ascii[l.src[l.pos]]&c != 0 {
		l.pos++
	}
}

// skipTo steps to the next ASCII byte a or b, or to the end of input;
// neither is part of a multi-byte rune, so it decodes none.
func (l *sLexer) skipTo(a, b byte) {
	for l.pos < len(l.src) && l.src[l.pos] != a && l.src[l.pos] != b {
		l.pos++
	}
}

func (l *sLexer) skipSpace() {
	for {
		l.skip(cSpace)
		r := l.peek()
		if r == '#' { // to the newline, which the next skip takes
			l.skipTo('\n', '\n')
			continue
		}
		if r < utf8.RuneSelf || !unicode.IsSpace(r) {
			return
		}
		l.advance()
	}
}

func isNameStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isNameChar(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// skipNameChars consumes a run of name characters.
func (l *sLexer) skipNameChars() {
	for {
		l.skip(cName)
		if r := l.peek(); r < utf8.RuneSelf || !isNameChar(r) {
			return
		}
		l.advance()
	}
}

// scanName consumes name characters, and colons when colons is set. A
// run of dots belongs to the name when a name character (or a colon
// where colons are) follows it and dots are allowed here — in a blank
// node label, and in a prefixed name once its colon is passed: PN_LOCAL
// and BLANK_NODE_LABEL hold dots but never end with one, so a trailing
// dot is left to end the statement. It reports whether a colon was
// consumed.
func (l *sLexer) scanName(colons bool) (hasColon bool) {
	for {
		l.skipNameChars()
		switch c := l.peek(); {
		case c == ':' && colons:
			hasColon = true
		case c == '.' && (hasColon || !colons):
			n := 0
			for l.peekAt(n) == '.' {
				n++
			}
			if r := l.peekAt(n); !isNameChar(r) && !(colons && r == ':') {
				return hasColon
			}
			l.pos += n - 1
		default:
			return hasColon
		}
		l.advance()
	}
}

// looksLikeIRI decides whether '<' at the current position opens an
// IRIREF: a '>' must appear before any whitespace, quote or second '<'.
func (l *sLexer) looksLikeIRI() bool {
	for i := l.pos + 1; i < len(l.src); i++ {
		c := l.src[i]
		switch {
		case c == '>':
			return true
		case c == '<' || c == '"' || c <= ' ':
			// IRIREF excludes controls and space; non-ASCII bytes are
			// part of an IRI, not whitespace.
			return false
		}
	}
	return false
}

func (l *sLexer) next() (tok, error) {
	l.skipSpace()
	off := l.pos
	mk := func(k tokKind, text string) tok { return tok{kind: k, text: text, off: off} }
	r := l.peek()
	switch {
	case r == -1:
		return mk(tEOF, ""), nil
	case r == '<' && l.looksLikeIRI():
		l.pos++
		start := l.pos
		if l.skipTo('>', '\\'); l.peek() == '>' {
			// No escapes: the text is the source's (the reader that
			// keeps it as a term copies it).
			l.pos++
			return mk(tIRI, l.src[start:l.pos-1]), nil
		}
		var sb strings.Builder
		sb.WriteString(l.src[start:l.pos])
		for {
			c := l.advance()
			if c == -1 {
				return tok{}, l.errorf("unterminated IRI")
			}
			if c == '>' {
				return mk(tIRI, sb.String()), nil
			}
			// IRIREF admits UCHAR escapes (\uXXXX, \UXXXXXXXX) and
			// nothing else after a backslash.
			if c == '\\' {
				e := l.advance()
				if e != 'u' && e != 'U' {
					return tok{}, l.errorf("bad escape \\%c in IRI (only \\u and \\U are allowed)", e)
				}
				v, err := l.uchar(e)
				if err != nil {
					return tok{}, err
				}
				sb.WriteRune(v)
				continue
			}
			sb.WriteRune(c)
		}
	case r == '?' || r == '$':
		if isNameStart(l.peekAt(1)) || unicode.IsDigit(l.peekAt(1)) {
			l.pos++
			start := l.pos
			l.skipNameChars()
			return mk(tVar, l.src[start:l.pos]), nil
		}
		l.pos++
		return mk(tPunct, "?"), nil
	case r == '"' || r == '\'':
		s, err := l.scanString()
		if err != nil {
			return tok{}, err
		}
		return mk(tString, s), nil
	case r == '@':
		// A language tag, or Turtle's @prefix / @base directive.
		l.pos++
		start := l.pos
		l.skipNameChars()
		return mk(tLang, strings.Clone(l.src[start:l.pos])), nil
	case r == '_':
		if l.peekAt(1) == ':' {
			l.pos += 2
			start := l.pos
			l.scanName(false)
			if l.pos == start {
				return tok{}, l.errorf("empty blank node label")
			}
			return mk(tBlank, l.src[start:l.pos]), nil
		}
		l.pos++
		return mk(tPunct, "_"), nil
	case unicode.IsDigit(r):
		return l.scanNumber(off), nil
	case r == '&':
		l.pos++
		if l.peek() != '&' {
			return tok{}, l.errorf("expected '&&'")
		}
		l.pos++
		return mk(tPunct, "&&"), nil
	case strings.ContainsRune("{}()[],;.=*/+-^|!<>", r):
		// One character, or one of the pairs "^^", "||", "!=", "<=" and
		// ">=". Negative numeric literals are produced by the parser from
		// unary minus; '.' is always punctuation here because bare
		// decimals start with a digit in SPARQL.
		l.pos++
		if c := l.peek(); c == r && (r == '^' || r == '|') || c == '=' && strings.ContainsRune("!<>", r) {
			l.pos++
		}
		return mk(tPunct, l.src[off:l.pos]), nil
	case r == ':' && !isNameStart(l.peekAt(1)):
		// A bare ':' (e.g. inside array subscripts) is punctuation; a
		// ':' followed by a name char opens an empty-prefix PName.
		l.pos++
		return mk(tPunct, ":"), nil
	case isNameStart(r) || r == ':':
		if l.scanName(true) {
			return mk(tPName, l.src[off:l.pos]), nil
		}
		return mk(tWord, l.src[off:l.pos]), nil
	default:
		return tok{}, l.errorf("unexpected character %q", r)
	}
}

func (l *sLexer) scanString() (string, error) {
	quote := l.advance()
	long := false
	if l.peek() == quote {
		l.pos++
		if l.peek() != quote {
			return "", nil
		}
		l.pos++
		long = true
	}
	// Most strings hold no escape and no quote of their kind: take them
	// from the source (copied, so a stored literal does not pin it).
	start := l.pos
	l.skipTo(byte(quote), '\\')
	if !long && l.peek() == quote {
		s := strings.Clone(l.src[start:l.pos])
		l.pos++
		return s, nil
	}
	var sb strings.Builder
	sb.WriteString(l.src[start:l.pos])
	for {
		c := l.advance()
		if c == -1 {
			return "", l.errorf("unterminated string")
		}
		if c == quote {
			if !long {
				return sb.String(), nil
			}
			if l.peek() == quote {
				l.advance()
				if l.peek() == quote {
					l.advance()
					return sb.String(), nil
				}
				sb.WriteRune(quote)
				sb.WriteRune(quote)
				continue
			}
			sb.WriteRune(quote)
			continue
		}
		if c == '\\' {
			e := l.advance()
			switch e {
			case 't':
				sb.WriteRune('\t')
			case 'n':
				sb.WriteRune('\n')
			case 'r':
				sb.WriteRune('\r')
			case 'b':
				sb.WriteRune('\b')
			case 'f':
				sb.WriteRune('\f')
			case '"', '\'', '\\':
				sb.WriteRune(e)
			case 'u', 'U':
				v, err := l.uchar(e)
				if err != nil {
					return "", err
				}
				sb.WriteRune(v)
			default:
				return "", l.errorf("bad escape \\%c", e)
			}
			continue
		}
		sb.WriteRune(c)
	}
}

// uchar decodes the digits of a \uXXXX (kind 'u') or \UXXXXXXXX (kind
// 'U') escape, the UCHAR of both grammars. It rejects truncated
// escapes, non-hex digits, UTF-16 surrogate halves (U+D800–U+DFFF,
// meaningless as scalar values) and code points beyond U+10FFFF, so
// round trips with the writers' escaping are lossless.
func (l *sLexer) uchar(kind rune) (rune, error) {
	n := 4
	if kind == 'U' {
		n = 8
	}
	var v int32
	for i := 0; i < n; i++ {
		r := l.advance()
		if r == -1 {
			return 0, l.errorf("truncated \\%c escape: want %d hex digits, got %d", kind, n, i)
		}
		d := hexVal(r)
		if d < 0 {
			return 0, l.errorf("bad \\%c escape: %q is not a hex digit", kind, r)
		}
		v = v*16 + int32(d)
		if v > 0x10FFFF {
			return 0, l.errorf("\\%c escape beyond U+10FFFF", kind)
		}
	}
	if v >= 0xD800 && v <= 0xDFFF {
		return 0, l.errorf("\\%c escape U+%04X is a UTF-16 surrogate half, not a character", kind, v)
	}
	return rune(v), nil
}

// hexVal returns the value of one hex digit, -1 when r is not one.
func hexVal(r rune) int {
	switch {
	case r >= '0' && r <= '9':
		return int(r - '0')
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10
	case r >= 'A' && r <= 'F':
		return int(r-'A') + 10
	default:
		return -1
	}
}

func (l *sLexer) scanNumber(off int) tok {
	kind := tInt
	for unicode.IsDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		kind = tDec
		l.advance()
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	if p := l.peek(); p == 'e' || p == 'E' {
		// Only an exponent when followed by digits (or sign+digits).
		n := 1
		if s := l.peekAt(1); s == '+' || s == '-' {
			n = 2
		}
		if unicode.IsDigit(l.peekAt(n)) {
			kind = tDbl
			l.pos += n
			for unicode.IsDigit(l.peek()) {
				l.advance()
			}
		}
	}
	return tok{kind: kind, text: l.src[off:l.pos], off: off}
}
