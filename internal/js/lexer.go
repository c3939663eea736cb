package js

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ErrSyntax is wrapped by all lexer and parser errors.
var ErrSyntax = errors.New("js syntax error")

// lexer tokenizes Javascript source.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

// punctuators ordered longest-first so maximal munch works with a simple
// prefix scan.
var punctuators = []string{
	">>>=", "===", "!==", ">>>", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
	"%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
}

// next returns the next token. A '/' always lexes as a punctuator:
// regular-expression literals are not supported, so a script that uses one
// fails to parse.
func (lx *lexer) next() (Token, error) {
	nl := lx.skipSpace()
	tok := Token{Pos: lx.pos, Line: lx.line, NewlineBefore: nl}
	if lx.pos >= len(lx.src) {
		tok.Kind, tok.End = TokEOF, lx.pos
		return tok, nil
	}
	c := lx.src[lx.pos]
	switch {
	case c == '"' || c == '\'':
		s, err := lx.lexString(c)
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Str = TokString, s
	case c >= '0' && c <= '9', c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]):
		n, err := lx.lexNumber()
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Num = TokNumber, n
	case isIdentStart(c):
		tok.Kind, tok.Str = TokIdent, lx.lexIdent()
		if keywords[tok.Str] {
			tok.Kind = TokKeyword
		}
	default:
		for _, p := range punctuators {
			if p[0] == c && strings.HasPrefix(lx.src[lx.pos:], p) {
				lx.pos += len(p)
				tok.Kind, tok.Str = TokPunct, p
				break
			}
		}
		if tok.Kind == 0 {
			return Token{}, fmt.Errorf("%w: unexpected character %q at line %d", ErrSyntax, c, lx.line)
		}
	}
	tok.End = lx.pos
	return tok, nil
}

// skipSpace consumes whitespace and comments, reporting whether a line
// terminator was crossed.
func (lx *lexer) skipSpace() (sawNewline bool) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			sawNewline = true
			lx.line++
			lx.pos++
		case c == '\r' || c == ' ' || c == '\t' || c == '\v' || c == '\f':
			if c == '\r' {
				sawNewline = true
			}
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				if lx.src[lx.pos] == '\n' {
					sawNewline = true
					lx.line++
				}
				lx.pos++
			}
			lx.pos += 2
			if lx.pos > len(lx.src) {
				lx.pos = len(lx.src)
			}
		default:
			return sawNewline
		}
	}
	return sawNewline
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func (lx *lexer) lexIdent() string {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.pos++
	}
	// Identifiers end on ASCII bytes, which never sit inside a UTF-8
	// sequence, so the name reads the same alone as in the source.
	return SourceText(lx.src[start:lx.pos])
}

// sourceRune reads the code point at byte offset i of script text. It is
// the engine's one reading of script text: a valid UTF-8 sequence reads
// as its rune, and a byte that is not part of valid UTF-8 reads as the
// code point of the same value, the way PDFDocEncoding reads most of
// 0x80–0xFF, so distinct bytes stay distinct. size is the number of bytes
// read, so token offsets stay byte offsets into the source.
func sourceRune(src string, i int) (r rune, size int) {
	r, size = utf8.DecodeRuneInString(src[i:])
	if r == utf8.RuneError && size == 1 {
		r = rune(src[i])
	}
	return r, size
}

// SourceText returns script text as the engine reads it (sourceRune),
// encoded as UTF-8; valid UTF-8 is returned unchanged. The lexer and the
// instrumenter's cipher share this one reading.
func SourceText(src string) string {
	if utf8.ValidString(src) {
		return src
	}
	var b strings.Builder
	b.Grow(len(src) + len(src)/2)
	for i := 0; i < len(src); {
		r, size := sourceRune(src, i)
		b.WriteRune(r)
		i += size
	}
	return b.String()
}

func (lx *lexer) lexNumber() (float64, error) {
	start := lx.pos
	// Hex literal.
	if lx.src[lx.pos] == '0' && lx.pos+1 < len(lx.src) && (lx.src[lx.pos+1] == 'x' || lx.src[lx.pos+1] == 'X') {
		lx.pos += 2
		v := 0.0
		digits := 0
		for lx.pos < len(lx.src) {
			d, ok := hexDigit(lx.src[lx.pos])
			if !ok {
				break
			}
			v = v*16 + float64(d)
			digits++
			lx.pos++
		}
		if digits == 0 {
			return 0, fmt.Errorf("%w: malformed hex literal at line %d", ErrSyntax, lx.line)
		}
		return v, nil
	}
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		lx.pos++
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		save := lx.pos
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.pos++
			}
		} else {
			lx.pos = save
		}
	}
	return parseDecimal(lx.src[start:lx.pos])
}

func hexDigit(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	}
	return 0, false
}

// parseDecimal parses validated decimal literal text (an optional sign,
// digits with at most one dot, an optional exponent), rounded correctly.
// A literal too large for a float64 is ±Infinity and one too small is 0,
// as in Javascript.
func parseDecimal(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if errors.Is(err, strconv.ErrRange) {
		return f, nil
	}
	return f, err
}

// lexString lexes a quoted string literal handling the escape forms that
// appear in real PDF malware: \xNN, \uNNNN, octal, and the usual singles.
func (lx *lexer) lexString(quote byte) (string, error) {
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch c {
		case quote:
			lx.pos++
			return b.String(), nil
		case '\n':
			return "", fmt.Errorf("%w: unterminated string at line %d", ErrSyntax, lx.line)
		case '\\':
			lx.pos++
			if lx.pos >= len(lx.src) {
				return "", fmt.Errorf("%w: dangling escape at line %d", ErrSyntax, lx.line)
			}
			e := lx.src[lx.pos]
			switch e {
			case 'n':
				b.WriteByte('\n')
				lx.pos++
			case 'r':
				b.WriteByte('\r')
				lx.pos++
			case 't':
				b.WriteByte('\t')
				lx.pos++
			case 'b':
				b.WriteByte('\b')
				lx.pos++
			case 'f':
				b.WriteByte('\f')
				lx.pos++
			case 'v':
				b.WriteByte('\v')
				lx.pos++
			case '0':
				b.WriteByte(0)
				lx.pos++
			case 'x':
				lx.pos++
				v, ok := lx.readHex(2)
				if !ok {
					return "", fmt.Errorf("%w: bad \\x escape at line %d", ErrSyntax, lx.line)
				}
				b.WriteRune(rune(v))
			case 'u':
				lx.pos++
				v, ok := lx.readHex(4)
				if !ok {
					return "", fmt.Errorf("%w: bad \\u escape at line %d", ErrSyntax, lx.line)
				}
				b.WriteRune(rune(v))
			case '\n':
				lx.line++
				lx.pos++
			case '\r':
				// Line continuation across CR LF or a lone CR.
				lx.pos++
				if lx.pos < len(lx.src) && lx.src[lx.pos] == '\n' {
					lx.line++
					lx.pos++
				}
			default:
				r, size := sourceRune(lx.src, lx.pos)
				b.WriteRune(r)
				lx.pos += size
			}
		default:
			r, size := sourceRune(lx.src, lx.pos)
			b.WriteRune(r)
			lx.pos += size
		}
	}
	return "", fmt.Errorf("%w: unterminated string", ErrSyntax)
}

func (lx *lexer) readHex(n int) (int, bool) {
	v := 0
	for i := 0; i < n; i++ {
		if lx.pos >= len(lx.src) {
			return 0, false
		}
		d, ok := hexDigit(lx.src[lx.pos])
		if !ok {
			return 0, false
		}
		v = v*16 + d
		lx.pos++
	}
	return v, true
}
