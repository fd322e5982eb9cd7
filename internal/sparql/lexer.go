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

type tok struct {
	kind tokKind
	text string
	line int
	col  int
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
// SPARQL's terminals, so both readers share one set of token rules.
type sLexer struct {
	src    string
	pos    int
	line   int
	col    int
	syntax string // names the grammar in error messages: "sciSPARQL" or "turtle"
}

func newSLexer(src, syntax string) *sLexer {
	return &sLexer{src: src, line: 1, col: 1, syntax: syntax}
}

func (l *sLexer) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d col %d: %s", l.syntax, l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *sLexer) peekAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos+off:])
	return r
}

func (l *sLexer) peek() rune { return l.peekAt(0) }

func (l *sLexer) advance() rune {
	if l.pos >= len(l.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *sLexer) skipSpace() {
	for {
		r := l.peek()
		if r == '#' {
			for r != '\n' && r != -1 {
				r = l.advance()
			}
			continue
		}
		if r == -1 || !unicode.IsSpace(r) {
			return
		}
		l.advance()
	}
}

func isNameStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isNameChar(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
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
		c := l.peek()
		switch {
		case isNameChar(c):
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
			for ; n > 1; n-- {
				l.advance()
			}
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
	line, col := l.line, l.col
	mk := func(k tokKind, text string) tok { return tok{kind: k, text: text, line: line, col: col} }
	r := l.peek()
	switch {
	case r == -1:
		return mk(tEOF, ""), nil
	case r == '<' && l.looksLikeIRI():
		l.advance()
		start := l.pos
		for c := l.peek(); c != '>' && c != '\\' && c != -1; c = l.peek() {
			l.advance()
		}
		if l.peek() == '>' {
			// No escapes: the text is the source's (copied, so a term
			// kept by a graph does not pin the whole document).
			text := strings.Clone(l.src[start:l.pos])
			l.advance()
			return mk(tIRI, text), nil
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
			l.advance()
			start := l.pos
			for isNameChar(l.peek()) {
				l.advance()
			}
			return mk(tVar, l.src[start:l.pos]), nil
		}
		l.advance()
		return mk(tPunct, "?"), nil
	case r == '"' || r == '\'':
		s, err := l.scanString()
		if err != nil {
			return tok{}, err
		}
		return mk(tString, s), nil
	case r == '@':
		// A language tag, or Turtle's @prefix / @base directive.
		l.advance()
		start := l.pos
		for isNameChar(l.peek()) {
			l.advance()
		}
		return mk(tLang, strings.Clone(l.src[start:l.pos])), nil
	case r == '_':
		if l.peekAt(1) == ':' {
			l.advance()
			l.advance()
			start := l.pos
			l.scanName(false)
			if l.pos == start {
				return tok{}, l.errorf("empty blank node label")
			}
			return mk(tBlank, l.src[start:l.pos]), nil
		}
		l.advance()
		return mk(tPunct, "_"), nil
	case unicode.IsDigit(r):
		return l.scanNumber(line, col)
	case r == '^':
		l.advance()
		if l.peek() == '^' {
			l.advance()
			return mk(tPunct, "^^"), nil
		}
		return mk(tPunct, "^"), nil
	case r == '&':
		l.advance()
		if l.peek() != '&' {
			return tok{}, l.errorf("expected '&&'")
		}
		l.advance()
		return mk(tPunct, "&&"), nil
	case r == '|':
		l.advance()
		if l.peek() == '|' {
			l.advance()
			return mk(tPunct, "||"), nil
		}
		return mk(tPunct, "|"), nil
	case r == '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(tPunct, "!="), nil
		}
		return mk(tPunct, "!"), nil
	case r == '<':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(tPunct, "<="), nil
		}
		return mk(tPunct, "<"), nil
	case r == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(tPunct, ">="), nil
		}
		return mk(tPunct, ">"), nil
	case strings.ContainsRune("{}()[],;.=*/+-", r):
		l.advance()
		// Negative numeric literals are produced by the parser from
		// unary minus; '.' is always punctuation here because bare
		// decimals start with a digit in SPARQL.
		return mk(tPunct, string(r)), nil
	case r == ':' && !isNameStart(l.peekAt(1)):
		// A bare ':' (e.g. inside array subscripts) is punctuation; a
		// ':' followed by a name char opens an empty-prefix PName.
		l.advance()
		return mk(tPunct, ":"), nil
	case isNameStart(r) || r == ':':
		start := l.pos
		if l.scanName(true) {
			return mk(tPName, l.src[start:l.pos]), nil
		}
		return mk(tWord, l.src[start:l.pos]), nil
	default:
		return tok{}, l.errorf("unexpected character %q", r)
	}
}

func (l *sLexer) scanString() (string, error) {
	quote := l.advance()
	long := false
	if l.peek() == quote {
		l.advance()
		if l.peek() != quote {
			return "", nil
		}
		l.advance()
		long = true
	}
	// Most strings hold no escape and no quote of their kind: take them
	// from the source (copied, so a stored literal does not pin it).
	start := l.pos
	for c := l.peek(); c != quote && c != '\\' && c != -1; c = l.peek() {
		l.advance()
	}
	if !long && l.peek() == quote {
		s := strings.Clone(l.src[start:l.pos])
		l.advance()
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

func (l *sLexer) scanNumber(line, col int) (tok, error) {
	start := l.pos
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
		off := 1
		if s := l.peekAt(1); s == '+' || s == '-' {
			off = 2
		}
		if unicode.IsDigit(l.peekAt(off)) {
			kind = tDbl
			for i := 0; i < off; i++ {
				l.advance()
			}
			for unicode.IsDigit(l.peek()) {
				l.advance()
			}
		}
	}
	return tok{kind: kind, text: l.src[start:l.pos], line: line, col: col}, nil
}
