package js

// Node is implemented by all AST nodes.
type Node interface{ nodePos() int }

type base struct{ Pos int }

func (b base) nodePos() int { return b.Pos }

// ---- Statements ----

// Program is the root node.
type Program struct {
	base
	Body []Stmt
	// Calls lists every CallExpr and NewExpr in the program, each once its
	// argument list is parsed, so inner calls precede the calls enclosing
	// them. It lets a tool find call sites without walking the tree.
	Calls []Expr
}

// Stmt is implemented by statement nodes.
type Stmt interface{ Node }

// VarStmt declares one or more variables.
type VarStmt struct {
	base
	Decls []VarDecl
}

// VarDecl is one declarator inside a var statement.
type VarDecl struct {
	Name string
	Init Expr // nil when absent
}

// FuncDecl declares a named function.
type FuncDecl struct {
	base
	Name string
	Fn   *FuncLit
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	base
	X Expr
}

// IfStmt is if/else.
type IfStmt struct {
	base
	Cond Expr
	Then Stmt
	Else Stmt // nil when absent
}

// WhileStmt is a while loop.
type WhileStmt struct {
	base
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	base
	Body Stmt
	Cond Expr
}

// ForStmt is the classic three-clause for loop.
type ForStmt struct {
	base
	Init Stmt // VarStmt or ExprStmt or nil
	Cond Expr // nil = always true
	Post Expr // nil when absent
	Body Stmt
}

// ForInStmt is for (k in obj).
type ForInStmt struct {
	base
	VarName string
	Declare bool // "for (var k in ...)"
	Object  Expr
	Body    Stmt
}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	base
	X Expr // nil for bare return
}

// BreakStmt breaks the innermost loop or switch.
type BreakStmt struct{ base }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ base }

// BlockStmt is { ... }.
type BlockStmt struct {
	base
	Body []Stmt
}

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{ base }

// ThrowStmt throws a value.
type ThrowStmt struct {
	base
	X Expr
}

// TryStmt is try/catch/finally.
type TryStmt struct {
	base
	Body      *BlockStmt
	CatchName string
	Catch     *BlockStmt // nil when absent
	Finally   *BlockStmt // nil when absent
}

// SwitchStmt is a switch with strict-equality case matching.
type SwitchStmt struct {
	base
	Disc  Expr
	Cases []SwitchCase
}

// SwitchCase is one case (Test nil for default).
type SwitchCase struct {
	Test Expr
	Body []Stmt
}

// ---- Expressions ----

// Expr is implemented by expression nodes.
type Expr interface{ Node }

// NumberLit is a numeric literal.
type NumberLit struct {
	base
	Value float64
}

// StringLit is a string literal, or the name in a dotted property access.
type StringLit struct {
	base
	Value string
	End   int // byte offset after the literal's closing quote or the name
}

// BoolLit is true/false.
type BoolLit struct {
	base
	Value bool
}

// NullLit is null.
type NullLit struct{ base }

// Ident is an identifier reference.
type Ident struct {
	base
	Name string
}

// ThisLit is the this expression.
type ThisLit struct{ base }

// ArrayLit is [a, b, ...].
type ArrayLit struct {
	base
	Elems []Expr
}

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	base
	Keys   []string
	Values []Expr
}

// FuncLit is a function expression (also the body of declarations).
type FuncLit struct {
	base
	Name   string // optional
	Params []string
	Body   []Stmt
	// Source is the exact source text of the function, used by toString.
	Source string
}

// UnaryExpr is a prefix operator.
type UnaryExpr struct {
	base
	Op string // ! ~ - + typeof void delete
	X  Expr
}

// UpdateExpr is ++/-- in prefix or postfix position.
type UpdateExpr struct {
	base
	Op     string // "++" or "--"
	X      Expr
	Prefix bool
}

// BinaryExpr is a binary operator.
type BinaryExpr struct {
	base
	Op   string
	L, R Expr
}

// LogicalExpr is && or || with short-circuit evaluation.
type LogicalExpr struct {
	base
	Op   string
	L, R Expr
}

// CondExpr is the ?: ternary.
type CondExpr struct {
	base
	Cond, Then, Else Expr
}

// AssignExpr is = and the compound assignment operators.
type AssignExpr struct {
	base
	Op     string // "=", "+=", ...
	Target Expr   // Ident or MemberExpr
	Value  Expr
}

// CallExpr is a function call.
type CallExpr struct {
	base
	Callee Expr
	Args   []Expr
}

// NewExpr is new Callee(args).
type NewExpr struct {
	base
	Callee Expr
	Args   []Expr
}

// MemberExpr is a property access, either dotted or computed.
type MemberExpr struct {
	base
	Object   Expr
	Property Expr // StringLit for dotted access
	Computed bool
}

// SeqExpr is the comma operator.
type SeqExpr struct {
	base
	Exprs []Expr
}
