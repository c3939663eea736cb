package js

import (
	"fmt"
)

// Parser builds an AST from Javascript source. It implements the ES3 core
// grammar minus regular-expression literals, labelled statements and with.
type Parser struct {
	lx    *lexer
	tok   Token
	prev  Token
	src   string
	calls []Expr
	// depth counts the statements, assignment expressions, unary
	// operators and new-expressions being parsed. Each recurses on the Go
	// stack, so nesting past maxDepth is a syntax error rather than a
	// fatal stack overflow.
	depth int
}

// Parse parses a complete program.
func Parse(src string) (*Program, error) {
	p := &Parser{lx: newLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.tok.Kind != TokEOF {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, st)
	}
	prog.Calls = p.calls
	return prog, nil
}

func (p *Parser) advance() error {
	p.prev = p.tok
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("%w: %s (line %d)", ErrSyntax, msg, p.tok.Line)
}

// enter counts one level of nesting; every successful enter is paired
// with a deferred leave.
func (p *Parser) enter() error {
	if p.depth >= maxDepth {
		return p.errf("nesting deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) isPunct(s string) bool   { return p.tok.Kind == TokPunct && p.tok.Str == s }
func (p *Parser) isKeyword(s string) bool { return p.tok.Kind == TokKeyword && p.tok.Str == s }

func (p *Parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, got %v", s, p.tok)
	}
	return p.advance()
}

func (p *Parser) expectKeyword(s string) error {
	if !p.isKeyword(s) {
		return p.errf("expected keyword %q, got %v", s, p.tok)
	}
	return p.advance()
}

// consumeSemicolon implements automatic semicolon insertion: an explicit
// ';', a closing brace, EOF, or a newline before the current token all
// terminate a statement.
func (p *Parser) consumeSemicolon() error {
	if p.isPunct(";") {
		return p.advance()
	}
	if p.isPunct("}") || p.tok.Kind == TokEOF || p.tok.NewlineBefore {
		return nil
	}
	return p.errf("expected ';', got %v", p.tok)
}

func (p *Parser) parseStatement() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isPunct(";"):
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &EmptyStmt{base{pos}}, nil
	case p.isKeyword("var"):
		return p.parseVar()
	case p.isKeyword("function"):
		return p.parseFuncDecl()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("do"):
		return p.parseDoWhile()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("return"):
		return p.parseReturn()
	case p.isKeyword("break"):
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return &BreakStmt{base{pos}}, nil
	case p.isKeyword("continue"):
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return &ContinueStmt{base{pos}}, nil
	case p.isKeyword("throw"):
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return &ThrowStmt{base{pos}, x}, nil
	case p.isKeyword("try"):
		return p.parseTry()
	case p.isKeyword("switch"):
		return p.parseSwitch()
	case p.isKeyword("with"):
		return nil, p.errf("'with' is not supported")
	default:
		pos := p.tok.Pos
		x, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return &ExprStmt{base{pos}, x}, nil
	}
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	pos := p.tok.Pos
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{base: base{pos}}
	for !p.isPunct("}") {
		if p.tok.Kind == TokEOF {
			return nil, p.errf("unterminated block")
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		blk.Body = append(blk.Body, st)
	}
	return blk, p.advance()
}

func (p *Parser) parseVar() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	st := &VarStmt{base: base{pos}}
	if err := p.parseVarDecls(st); err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseVarDecls(st *VarStmt) error {
	for {
		if p.tok.Kind != TokIdent {
			return p.errf("expected identifier in var, got %v", p.tok)
		}
		decl := VarDecl{Name: p.tok.Str}
		if err := p.advance(); err != nil {
			return err
		}
		if p.isPunct("=") {
			if err := p.advance(); err != nil {
				return err
			}
			init, err := p.parseAssign()
			if err != nil {
				return err
			}
			decl.Init = init
		}
		st.Decls = append(st.Decls, decl)
		if !p.isPunct(",") {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *Parser) parseFuncDecl() (Stmt, error) {
	pos := p.tok.Pos
	fn, err := p.parseFunction(true)
	if err != nil {
		return nil, err
	}
	return &FuncDecl{base{pos}, fn.Name, fn}, nil
}

// parseFunction parses "function [name] (params) { body }" with the
// 'function' keyword as the current token.
func (p *Parser) parseFunction(requireName bool) (*FuncLit, error) {
	start := p.tok.Pos
	if err := p.expectKeyword("function"); err != nil {
		return nil, err
	}
	fn := &FuncLit{base: base{start}}
	if p.tok.Kind == TokIdent {
		fn.Name = p.tok.Str
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if requireName {
		return nil, p.errf("function declaration requires a name")
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if err := p.parseList(")", "parameter list", func() error {
		if p.tok.Kind != TokIdent {
			return p.errf("expected parameter name, got %v", p.tok)
		}
		fn.Params = append(fn.Params, p.tok.Str)
		return p.advance()
	}); err != nil {
		return nil, err
	}
	blk, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = blk.Body
	end := p.prev.Pos + 1 // prev is '}'
	if start >= 0 && end <= len(p.src) && start < end {
		fn.Source = p.src[start:end]
	}
	return fn, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{base{pos}, cond, then, nil}
	if p.isKeyword("else") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		els, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{base{pos}, cond, body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("while"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return &DoWhileStmt{base{pos}, body, cond}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	// for (var x in y) / for (x in y)
	if p.isKeyword("var") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokIdent {
			return nil, p.errf("expected identifier after 'var'")
		}
		name := p.tok.Str
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("in") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.finishForIn(pos, name, true)
		}
		// Regular for with var init.
		varSt := &VarStmt{base: base{pos}, Decls: []VarDecl{{Name: name}}}
		if p.isPunct("=") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			init, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			varSt.Decls[0].Init = init
		}
		for p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent {
				return nil, p.errf("expected identifier in for-var")
			}
			d := VarDecl{Name: p.tok.Str}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isPunct("=") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				init, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				d.Init = init
			}
			varSt.Decls = append(varSt.Decls, d)
		}
		return p.finishFor(pos, varSt)
	}

	if p.isPunct(";") {
		return p.finishFor(pos, nil)
	}

	// Expression init; may turn out to be for-in.
	x, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if p.isKeyword("in") {
		ident, ok := x.(*Ident)
		if !ok {
			return nil, p.errf("for-in target must be an identifier")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.finishForIn(pos, ident.Name, false)
	}
	return p.finishFor(pos, &ExprStmt{base{pos}, x})
}

func (p *Parser) finishForIn(pos int, name string, declare bool) (Stmt, error) {
	obj, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &ForInStmt{base{pos}, name, declare, obj, body}, nil
}

func (p *Parser) finishFor(pos int, init Stmt) (Stmt, error) {
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	st := &ForStmt{base: base{pos}, Init: init}
	if !p.isPunct(";") {
		cond, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *Parser) parseReturn() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	st := &ReturnStmt{base: base{pos}}
	if !p.isPunct(";") && !p.isPunct("}") && p.tok.Kind != TokEOF && !p.tok.NewlineBefore {
		x, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		st.X = x
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseTry() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &TryStmt{base: base{pos}, Body: body}
	if p.isKeyword("catch") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokIdent {
			return nil, p.errf("expected catch parameter")
		}
		st.CatchName = p.tok.Str
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Catch, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
	}
	if p.isKeyword("finally") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		st.Finally, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
	}
	if st.Catch == nil && st.Finally == nil {
		return nil, p.errf("try requires catch or finally")
	}
	return st, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	disc, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	st := &SwitchStmt{base: base{pos}, Disc: disc}
	sawDefault := false
	for !p.isPunct("}") {
		var c SwitchCase
		switch {
		case p.isKeyword("case"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			c.Test, err = p.parseExpression()
			if err != nil {
				return nil, err
			}
		case p.isKeyword("default"):
			if sawDefault {
				return nil, p.errf("duplicate default case")
			}
			sawDefault = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected case or default, got %v", p.tok)
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.isKeyword("case") && !p.isKeyword("default") && !p.isPunct("}") {
			if p.tok.Kind == TokEOF {
				return nil, p.errf("unterminated switch")
			}
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, s)
		}
		st.Cases = append(st.Cases, c)
	}
	return st, p.advance()
}

// ---- Expressions (precedence climbing) ----

func (p *Parser) parseExpression() (Expr, error) {
	x, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	if !p.isPunct(",") {
		return x, nil
	}
	seq := &SeqExpr{base: base{x.nodePos()}, Exprs: []Expr{x}}
	for p.isPunct(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		seq.Exprs = append(seq.Exprs, next)
	}
	return seq, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true, ">>>=": true,
}

func (p *Parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokPunct && assignOps[p.tok.Str] {
		op := p.tok.Str
		switch left.(type) {
		case *Ident, *MemberExpr:
		default:
			return nil, p.errf("invalid assignment target")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		val, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{base{left.nodePos()}, op, left, val}, nil
	}
	return left, nil
}

func (p *Parser) parseConditional() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	then, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	return &CondExpr{base{cond.nodePos()}, cond, then, els}, nil
}

// binary operator precedence; larger binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7, "in": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) binOp() (string, bool) {
	if p.tok.Kind == TokPunct {
		if _, ok := binPrec[p.tok.Str]; ok {
			return p.tok.Str, true
		}
	}
	if p.tok.Kind == TokKeyword && (p.tok.Str == "instanceof" || p.tok.Str == "in") {
		return p.tok.Str, true
	}
	return "", false
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.binOp()
		if !ok {
			return left, nil
		}
		prec := binPrec[op]
		if prec < minPrec {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		if op == "&&" || op == "||" {
			left = &LogicalExpr{base{left.nodePos()}, op, left, right}
		} else {
			left = &BinaryExpr{base{left.nodePos()}, op, left, right}
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	pos, op := p.tok.Pos, p.tok.Str
	switch {
	case p.tok.Kind == TokPunct && (op == "!" || op == "~" || op == "-" || op == "+" || op == "++" || op == "--"):
	case p.tok.Kind == TokKeyword && (op == "typeof" || op == "void" || op == "delete"):
	default:
		return p.parsePostfix()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if op == "++" || op == "--" {
		return &UpdateExpr{base{pos}, op, x, true}, nil
	}
	return &UnaryExpr{base{pos}, op, x}, nil
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parseCallMember()
	if err != nil {
		return nil, err
	}
	// Postfix ++/-- must be on the same line per ASI rules.
	if p.tok.Kind == TokPunct && (p.tok.Str == "++" || p.tok.Str == "--") && !p.tok.NewlineBefore {
		op := p.tok.Str
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &UpdateExpr{base{x.nodePos()}, op, x, false}, nil
	}
	return x, nil
}

func (p *Parser) parseCallMember() (Expr, error) {
	var x Expr
	var err error
	if p.isKeyword("new") {
		x, err = p.parseNew()
	} else {
		x, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("."):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
				return nil, p.errf("expected property name after '.'")
			}
			prop := &StringLit{base{p.tok.Pos}, p.tok.Str, p.tok.End}
			if err := p.advance(); err != nil {
				return nil, err
			}
			x = &MemberExpr{base{x.nodePos()}, x, prop, false}
		case p.isPunct("["):
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &MemberExpr{base{x.nodePos()}, x, idx, true}
		case p.isPunct("("):
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			x = &CallExpr{base{x.nodePos()}, x, args}
			p.calls = append(p.calls, x)
		default:
			return x, nil
		}
	}
}

func (p *Parser) parseNew() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // 'new'
		return nil, err
	}
	var callee Expr
	var err error
	if p.isKeyword("new") {
		callee, err = p.parseNew()
	} else {
		callee, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	// Member accesses bind before the new's argument list.
	for {
		if p.isPunct(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
				return nil, p.errf("expected property name after '.'")
			}
			prop := &StringLit{base{p.tok.Pos}, p.tok.Str, p.tok.End}
			if err := p.advance(); err != nil {
				return nil, err
			}
			callee = &MemberExpr{base{callee.nodePos()}, callee, prop, false}
			continue
		}
		if p.isPunct("[") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			callee = &MemberExpr{base{callee.nodePos()}, callee, idx, true}
			continue
		}
		break
	}
	var args []Expr
	if p.isPunct("(") {
		args, err = p.parseArgs()
		if err != nil {
			return nil, err
		}
	}
	x := &NewExpr{base{pos}, callee, args}
	p.calls = append(p.calls, x)
	return x, nil
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	err := p.parseList(")", "argument list", func() error {
		a, err := p.parseAssign()
		args = append(args, a)
		return err
	})
	return args, err
}

// parseList parses the items of a comma-separated list up to and
// including the punctuator close, calling item once per item. A comma is
// required between items; one trailing comma before close is accepted, as
// newer engines accept it in all four lists (arguments, parameters, array
// and object literals). An item may consume nothing, which is how an
// array hole reads.
func (p *Parser) parseList(close, what string, item func() error) error {
	for !p.isPunct(close) {
		if p.tok.Kind == TokEOF {
			return p.errf("unterminated %s", what)
		}
		if err := item(); err != nil {
			return err
		}
		if p.isPunct(close) {
			break
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
	}
	return p.advance()
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokNumber:
		v := p.tok.Num
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &NumberLit{base{pos}, v}, nil
	case TokString:
		s, end := p.tok.Str, p.tok.End
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &StringLit{base{pos}, s, end}, nil
	case TokIdent:
		name := p.tok.Str
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Ident{base{pos}, name}, nil
	case TokKeyword:
		switch p.tok.Str {
		case "true", "false":
			v := p.tok.Str == "true"
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &BoolLit{base{pos}, v}, nil
		case "null":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &NullLit{base{pos}}, nil
		case "this":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &ThisLit{base{pos}}, nil
		case "function":
			return p.parseFunction(false)
		case "new":
			return p.parseNew()
		}
		return nil, p.errf("unexpected keyword %q", p.tok.Str)
	case TokPunct:
		switch p.tok.Str {
		case "(":
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			return p.parseArrayLit()
		case "{":
			return p.parseObjectLit()
		case "/":
			return nil, p.errf("regular expression literals are not supported")
		}
	}
	return nil, p.errf("unexpected token %v", p.tok)
}

func (p *Parser) parseArrayLit() (Expr, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // '['
		return nil, err
	}
	lit := &ArrayLit{base: base{pos}}
	err := p.parseList("]", "array literal", func() error {
		if p.isPunct(",") {
			// Elision -> undefined hole.
			lit.Elems = append(lit.Elems, nil)
			return nil
		}
		el, err := p.parseAssign()
		lit.Elems = append(lit.Elems, el)
		return err
	})
	return lit, err
}

func (p *Parser) parseObjectLit() (Expr, error) {
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // '{'
		return nil, err
	}
	lit := &ObjectLit{base: base{pos}}
	err := p.parseList("}", "object literal", func() error {
		var key string
		switch p.tok.Kind {
		case TokIdent, TokKeyword, TokString:
			key = p.tok.Str
		case TokNumber:
			key = numberToString(p.tok.Num)
		default:
			return p.errf("invalid property key %v", p.tok)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		val, err := p.parseAssign()
		lit.Keys = append(lit.Keys, key)
		lit.Values = append(lit.Values, val)
		return err
	})
	return lit, err
}
