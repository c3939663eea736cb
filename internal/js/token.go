// Package js implements a from-scratch interpreter for the ES3-flavoured
// Javascript dialect used inside PDF documents.
//
// The interpreter exists so that instrumented documents produced by the
// front-end run for real: the context-monitoring prologue, the
// decrypt-and-eval of the original script, and the epilogue all execute in
// this engine, exactly as they would inside a PDF reader's Javascript
// interpreter. The engine tracks heap allocations (strings retain two bytes
// per character, as in UTF-16 engines) so heap-spraying scripts exhibit the
// measurable memory growth the paper's runtime feature F8 depends on.
//
// Host functionality (the Acrobat API: app, Doc, util, SOAP, ...) is
// injected by the reader package through host objects; this package knows
// nothing about PDF.
package js

import "fmt"

// TokenKind enumerates lexical token kinds.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota + 1
	TokNumber
	TokString
	TokIdent
	TokKeyword
	TokPunct
)

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	// Pos and End are the byte offsets of the token's first byte and of
	// the byte after its last.
	Pos  int
	End  int
	Line int
	Num  float64
	Str  string // literal value, identifier, keyword or punctuator text
	// NewlineBefore reports a line terminator between the previous token
	// and this one (needed for automatic semicolon insertion).
	NewlineBefore bool
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokNumber:
		return fmt.Sprintf("num(%v)", t.Num)
	case TokString:
		return fmt.Sprintf("str(%q)", t.Str)
	default:
		return t.Str
	}
}

var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"while": true, "do": true, "for": true, "in": true, "break": true,
	"continue": true, "new": true, "delete": true, "typeof": true,
	"instanceof": true, "void": true, "this": true, "null": true,
	"true": true, "false": true, "try": true, "catch": true,
	"finally": true, "throw": true, "switch": true, "case": true,
	"default": true, "with": true,
}
