package js

// The compiler lowers a parsed Program into a Code unit executed by vm.go.
// Its one hard invariant is the step charge model: one step at the entry
// of every statement and expression node, each time it is evaluated. The
// compiler accumulates those per-node charges in `pending` and folds them
// into the cost of the next emitted instruction. Because a node's entry
// charge is immediately followed by its first child's entry charge (with no
// observable effect in between), folding consecutive charges into one
// instruction preserves both totals and the order of charges relative to
// every host-visible effect; chargeSteps stops a folded charge at limit+1,
// as one-at-a-time charging would. Where no following instruction exists
// inside the charged region — empty statements, loop headers whose first
// instruction re-executes each iteration — the compiler flushes the pending
// charge into an explicit opNop.

import "math"

// Compile lowers a parsed program into a bytecode unit.
func Compile(prog *Program) *Code {
	c := &compiler{
		unit:     &Code{},
		constIdx: make(map[constKey]int32),
		nameIdx:  make(map[string]int32),
	}
	a := c.newAsm()
	a.hoists = c.hoistList(prog.Body)
	a.topLevel(prog.Body)
	c.unit.ins = a.ins
	c.unit.hoists = a.hoists
	c.unit.maxStack = a.maxDepth
	return c.unit
}

// CompileSource parses and compiles src.
func CompileSource(src string) (*Code, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	code := Compile(prog)
	code.srcLen = len(src)
	return code, nil
}

// constKey identifies a constant. num holds the number's bits: as a
// float64 key, 0 and -0 would be one constant.
type constKey struct {
	kind ValueKind
	num  uint64
	str  string
}

type compiler struct {
	unit     *Code
	constIdx map[constKey]int32
	nameIdx  map[string]int32
}

func (c *compiler) constIndex(v Value) int32 {
	k := constKey{kind: v.Kind(), num: math.Float64bits(v.num), str: v.Str()}
	if idx, ok := c.constIdx[k]; ok {
		return idx
	}
	idx := int32(len(c.unit.Consts))
	c.unit.Consts = append(c.unit.Consts, v)
	c.constIdx[k] = idx
	return idx
}

func (c *compiler) nameIndex(s string) int32 {
	if idx, ok := c.nameIdx[s]; ok {
		return idx
	}
	idx := int32(len(c.unit.Names))
	c.unit.Names = append(c.unit.Names, s)
	c.nameIdx[s] = idx
	return idx
}

// hoistList collects a body's var and function declarations, nested
// statements included, as a flat list applied at frame entry, compiling
// declared function bodies on the way.
func (c *compiler) hoistList(body []Stmt) []hoistEntry {
	var out []hoistEntry
	for _, st := range body {
		out = c.hoistStmt(st, out)
	}
	return out
}

func (c *compiler) hoistStmt(st Stmt, out []hoistEntry) []hoistEntry {
	switch s := st.(type) {
	case *VarStmt:
		for _, d := range s.Decls {
			out = append(out, hoistEntry{name: d.Name})
		}
	case *FuncDecl:
		out = append(out, hoistEntry{name: s.Name, proto: c.compileFunc(s.Fn)})
	case *IfStmt:
		out = c.hoistStmt(s.Then, out)
		if s.Else != nil {
			out = c.hoistStmt(s.Else, out)
		}
	case *WhileStmt:
		out = c.hoistStmt(s.Body, out)
	case *DoWhileStmt:
		out = c.hoistStmt(s.Body, out)
	case *ForStmt:
		if s.Init != nil {
			out = c.hoistStmt(s.Init, out)
		}
		out = c.hoistStmt(s.Body, out)
	case *ForInStmt:
		if s.Declare {
			out = append(out, hoistEntry{name: s.VarName})
		}
		out = c.hoistStmt(s.Body, out)
	case *BlockStmt:
		for _, inner := range s.Body {
			out = c.hoistStmt(inner, out)
		}
	case *TryStmt:
		for _, inner := range s.Body.Body {
			out = c.hoistStmt(inner, out)
		}
		if s.Catch != nil {
			for _, inner := range s.Catch.Body {
				out = c.hoistStmt(inner, out)
			}
		}
		if s.Finally != nil {
			for _, inner := range s.Finally.Body {
				out = c.hoistStmt(inner, out)
			}
		}
	case *SwitchStmt:
		for _, cs := range s.Cases {
			for _, inner := range cs.Body {
				out = c.hoistStmt(inner, out)
			}
		}
	}
	return out
}

func (c *compiler) compileFunc(lit *FuncLit) *FnProto {
	p := &FnProto{Lit: lit, Unit: c.unit, index: int32(len(c.unit.Protos))}
	c.unit.Protos = append(c.unit.Protos, p)
	a := c.newAsm()
	a.hoists = c.hoistList(lit.Body)
	for _, st := range lit.Body {
		a.stmt(st)
	}
	p.ins = a.ins
	p.hoists = a.hoists
	p.maxStack = a.maxDepth
	return p
}

// loopCtx tracks one enclosing loop or switch during compilation.
type loopCtx struct {
	isSwitch bool
	// depths live at the loop statement (break/continue unwind targets).
	handlers, iters, calls, sp int
	// contTarget is the continue landing pc (-1 until placed).
	contTarget int
	// contIters is the iterator depth at the continue target (for-in keeps
	// its iterator live across continue).
	contIters int
	breaks    []pendingJump
	continues []pendingJump
}

// pendingJump is a forward jump awaiting its target.
type pendingJump struct {
	ins int
	// unwind indexes Code.Unwinds when the jump must run finally blocks or
	// drop iterators (-1 for a plain opJump).
	unwind int32
}

type asm struct {
	c        *compiler
	ins      []instr
	pending  int32
	depth    int
	maxDepth int
	handlers int
	iters    int
	calls    int
	loops    []*loopCtx
	hoists   []hoistEntry
}

func (c *compiler) newAsm() *asm { return &asm{c: c} }

func (a *asm) emit(op Op, opA, opB int32) int {
	a.ins = append(a.ins, instr{op: op, a: opA, b: opB, cost: a.pending})
	a.pending = 0
	return len(a.ins) - 1
}

// flush materializes any pending charge into an opNop so it is billed
// exactly once even when the following instruction is a loop header.
func (a *asm) flush() {
	if a.pending > 0 {
		a.emit(opNop, 0, 0)
	}
}

func (a *asm) pc() int { return len(a.ins) }

func (a *asm) patch(ins int, target int) { a.ins[ins].a = int32(target) }

func (a *asm) push(n int) {
	a.depth += n
	if a.depth > a.maxDepth {
		a.maxDepth = a.depth
	}
}

func (a *asm) pop(n int) { a.depth -= n }

func (a *asm) emitConst(v Value) {
	a.emit(opConst, a.c.constIndex(v), 0)
	a.push(1)
}

// topLevel compiles program/eval top-level statements with completion-value
// tracking. Expression statements always store their value; if/block values
// are stored only when defined, and only under program semantics (the
// opSetCompIfDef handler checks the frame mode, so one compiled unit serves
// both Run and eval entry points with their differing capture rules).
func (a *asm) topLevel(body []Stmt) {
	for _, st := range body {
		switch st.(type) {
		case *ExprStmt:
			a.pending++
			a.expr(st.(*ExprStmt).X)
			a.emit(opSetComp, 0, 0)
			a.pop(1)
		case *BlockStmt, *IfStmt:
			a.valued(st)
			a.emit(opSetCompIfDef, 0, 0)
			a.pop(1)
		default:
			a.stmt(st)
		}
	}
}

// valued compiles a statement leaving its completion value on the stack
// (only ExprStmt, BlockStmt and IfStmt produce one; everything else
// completes with undefined).
func (a *asm) valued(st Stmt) {
	a.pending++
	switch s := st.(type) {
	case *ExprStmt:
		a.expr(s.X)
	case *BlockStmt:
		// The block completion starts undefined and is overwritten by each
		// direct child expression statement; no other child sets it.
		a.emitConst(Undefined())
		for _, inner := range s.Body {
			if es, ok := inner.(*ExprStmt); ok {
				a.pending++
				a.emit(opPop, 0, 0)
				a.pop(1)
				a.expr(es.X)
			} else {
				a.stmt(inner)
			}
		}
	case *IfStmt:
		a.expr(s.Cond)
		jf := a.emit(opJumpIfFalse, 0, jumpForceEligible)
		a.pop(1)
		a.valued(s.Then)
		a.pop(1) // rebalance: both branches push exactly one value
		jend := a.emit(opJump, 0, 0)
		a.patch(jf, a.pc())
		if s.Else != nil {
			a.valued(s.Else)
			a.pop(1)
		} else {
			a.emitConst(Undefined())
			a.pop(1)
		}
		a.patch(jend, a.pc())
		a.push(1)
	default:
		a.stmtBody(st)
		a.flush()
		a.emitConst(Undefined())
	}
}

func (a *asm) stmt(st Stmt) {
	a.pending++
	a.stmtBody(st)
	a.flush()
}

func (a *asm) stmtBody(st Stmt) {
	switch s := st.(type) {
	case *EmptyStmt:
		// flush() bills the bare statement's step.
	case *FuncDecl:
		// Hoisted; only the statement's entry charge remains.
	case *VarStmt:
		for _, d := range s.Decls {
			if d.Init != nil {
				a.expr(d.Init)
				a.emit(opDeclName, a.c.nameIndex(d.Name), 0)
				a.pop(1)
			} else {
				a.emit(opDeclNameUndef, a.c.nameIndex(d.Name), 0)
			}
		}
	case *ExprStmt:
		a.expr(s.X)
		a.emit(opPop, 0, 0)
		a.pop(1)
	case *IfStmt:
		// The b operand marks the jump force-eligible: forced execution may
		// override if/else decisions but never loop back-edges (see forced.go).
		a.expr(s.Cond)
		jf := a.emit(opJumpIfFalse, 0, jumpForceEligible)
		a.pop(1)
		a.stmt(s.Then)
		if s.Else != nil {
			jend := a.emit(opJump, 0, 0)
			a.patch(jf, a.pc())
			a.stmt(s.Else)
			a.patch(jend, a.pc())
		} else {
			a.patch(jf, a.pc())
		}
	case *WhileStmt:
		a.flush() // the loop statement's own step, billed once
		head := a.pc()
		a.expr(s.Cond)
		jf := a.emit(opJumpIfFalse, 0, 0)
		a.pop(1)
		lc := a.pushLoop(false)
		lc.contTarget = head
		a.stmt(s.Body)
		a.emit(opJump, int32(head), 0)
		a.patch(jf, a.pc())
		a.popLoop(lc)
	case *DoWhileStmt:
		a.flush()
		head := a.pc()
		lc := a.pushLoop(false)
		a.stmt(s.Body)
		lc.contTarget = a.pc()
		a.expr(s.Cond)
		a.emit(opJumpIfTrue, int32(head), 0)
		a.pop(1)
		a.popLoop(lc)
	case *ForStmt:
		a.flush()
		if s.Init != nil {
			a.stmt(s.Init)
		}
		head := a.pc()
		var jf = -1
		if s.Cond != nil {
			a.expr(s.Cond)
			jf = a.emit(opJumpIfFalse, 0, 0)
			a.pop(1)
		}
		lc := a.pushLoop(false)
		a.stmt(s.Body)
		lc.contTarget = a.pc()
		if s.Post != nil {
			a.expr(s.Post)
			a.emit(opPop, 0, 0)
			a.pop(1)
		}
		a.emit(opJump, int32(head), 0)
		if jf >= 0 {
			a.patch(jf, a.pc())
		}
		a.popLoop(lc)
	case *ForInStmt:
		a.expr(s.Object)
		initIns := a.emit(opForInInit, 0, 0)
		a.pop(1)
		a.iters++
		lc := a.pushLoop(false)
		// A break discards the loop's own iterator; a continue keeps it.
		lc.iters = a.iters - 1
		lc.contIters = a.iters
		lc.contTarget = a.pc()
		op := opForInNextAssign
		if s.Declare {
			op = opForInNextDecl
		}
		nextIns := a.emit(op, 0, a.c.nameIndex(s.VarName))
		a.stmt(s.Body)
		a.emit(opJump, int32(lc.contTarget), 0)
		end := a.pc()
		a.patch(initIns, end)
		a.patch(nextIns, end)
		a.iters--
		a.popLoop(lc)
	case *ReturnStmt:
		if s.X != nil {
			a.expr(s.X)
		} else {
			a.emitConst(Undefined())
		}
		a.emit(opReturn, 0, 0)
		a.pop(1)
	case *BreakStmt:
		a.breakContinue(true)
	case *ContinueStmt:
		a.breakContinue(false)
	case *BlockStmt:
		for _, inner := range s.Body {
			a.stmt(inner)
		}
	case *ThrowStmt:
		a.expr(s.X)
		a.emit(opThrow, 0, 0)
		a.pop(1)
	case *TryStmt:
		hIdx := int32(len(a.c.unit.Handlers))
		a.c.unit.Handlers = append(a.c.unit.Handlers, handlerDef{catchPC: -1, finallyPC: -1, catchName: -1})
		a.emit(opTryPush, hIdx, 0)
		a.handlers++
		a.stmt(s.Body)
		a.emit(opTryPopNormal, hIdx, 0)
		h := &a.c.unit.Handlers[hIdx]
		if s.Catch != nil {
			h.catchPC = int32(a.pc())
			h.catchName = a.c.nameIndex(s.CatchName)
			a.stmt(s.Catch)
			a.emit(opCatchEnd, hIdx, 0)
			h = &a.c.unit.Handlers[hIdx]
		}
		if s.Finally != nil {
			h.finallyPC = int32(a.pc())
			a.stmt(s.Finally)
			a.emit(opFinallyEnd, hIdx, 0)
			h = &a.c.unit.Handlers[hIdx]
		}
		h.afterPC = int32(a.pc())
		a.handlers--
	case *SwitchStmt:
		a.expr(s.Disc)
		// Test chain: evaluate non-default tests in source order until one
		// matches strictly, then land on the matched case's body with the
		// discriminant popped; fall through bodies from there.
		type caseJump struct{ caseIdx, ins int }
		var chain []caseJump
		defaultIdx := -1
		for i, cs := range s.Cases {
			if cs.Test == nil {
				defaultIdx = i
				continue
			}
			a.expr(cs.Test)
			ins := a.emit(opCaseJump, 0, 0)
			a.pop(1)
			chain = append(chain, caseJump{caseIdx: i, ins: ins})
		}
		noMatch := a.emit(opJump, 0, 0)
		// Per-case trampolines pop the discriminant before entering the
		// body so fallthrough between bodies needs no stack fixup.
		a.pop(1) // discriminant gone on every body path
		lc := a.pushLoop(true)
		bodyJumps := make([]int, len(s.Cases))
		for i := range bodyJumps {
			bodyJumps[i] = -1
		}
		for _, cj := range chain {
			a.patch(cj.ins, a.pc())
			a.push(1) // trampoline entered with discriminant on stack
			a.emit(opPop, 0, 0)
			a.pop(1)
			bodyJumps[cj.caseIdx] = a.emit(opJump, 0, 0)
		}
		if defaultIdx >= 0 {
			a.patch(noMatch, a.pc())
			a.push(1)
			a.emit(opPop, 0, 0)
			a.pop(1)
			bodyJumps[defaultIdx] = a.emit(opJump, 0, 0)
		} else {
			a.patch(noMatch, a.pc())
			a.push(1)
			a.emit(opPop, 0, 0)
			a.pop(1)
			endJump := a.emit(opJump, 0, 0)
			lc.breaks = append(lc.breaks, pendingJump{ins: endJump, unwind: -1})
		}
		for i, cs := range s.Cases {
			if bodyJumps[i] >= 0 {
				a.patch(bodyJumps[i], a.pc())
			}
			for _, inner := range cs.Body {
				a.stmt(inner)
			}
		}
		a.popLoop(lc)
	default:
		panic("js: unhandled statement in compiler")
	}
}

func (a *asm) pushLoop(isSwitch bool) *loopCtx {
	lc := &loopCtx{
		isSwitch:   isSwitch,
		handlers:   a.handlers,
		iters:      a.iters,
		calls:      a.calls,
		sp:         a.depth,
		contTarget: -1,
		contIters:  a.iters,
	}
	a.loops = append(a.loops, lc)
	return lc
}

// popLoop patches the loop's break jumps to the current pc (loop end) and
// its continue jumps to the recorded continue target.
func (a *asm) popLoop(lc *loopCtx) {
	a.loops = a.loops[:len(a.loops)-1]
	end := a.pc()
	for _, pj := range lc.breaks {
		if pj.unwind >= 0 {
			a.c.unit.Unwinds[pj.unwind].target = int32(end)
		} else {
			a.patch(pj.ins, end)
		}
	}
	for _, pj := range lc.continues {
		if pj.unwind >= 0 {
			a.c.unit.Unwinds[pj.unwind].target = int32(lc.contTarget)
		} else {
			a.patch(pj.ins, lc.contTarget)
		}
	}
}

// breakContinue compiles break/continue: a plain jump when nothing lies
// between the statement and its loop, an unwind when intervening try
// handlers or for-in iterators must be processed, and an escaping control
// error when no loop encloses the statement at all.
func (a *asm) breakContinue(isBreak bool) {
	var lc *loopCtx
	for i := len(a.loops) - 1; i >= 0; i-- {
		cand := a.loops[i]
		if !isBreak && cand.isSwitch {
			continue // continue targets the nearest loop, skipping switches
		}
		lc = cand
		break
	}
	if lc == nil {
		if isBreak {
			a.emit(opBreakErr, 0, 0)
		} else {
			a.emit(opContinueErr, 0, 0)
		}
		return
	}
	targetIters := lc.iters
	if !isBreak {
		targetIters = lc.contIters
	}
	if a.handlers == lc.handlers && a.iters == targetIters {
		ins := a.emit(opJump, 0, 0)
		pj := pendingJump{ins: ins, unwind: -1}
		if isBreak {
			lc.breaks = append(lc.breaks, pj)
		} else {
			lc.continues = append(lc.continues, pj)
		}
		return
	}
	uIdx := int32(len(a.c.unit.Unwinds))
	a.c.unit.Unwinds = append(a.c.unit.Unwinds, unwindPoint{
		handlers: int32(lc.handlers),
		iters:    int32(targetIters),
		calls:    int32(lc.calls),
		sp:       int32(lc.sp),
	})
	ins := a.emit(opUnwind, uIdx, 0)
	pj := pendingJump{ins: ins, unwind: uIdx}
	if isBreak {
		lc.breaks = append(lc.breaks, pj)
	} else {
		lc.continues = append(lc.continues, pj)
	}
}

// expr compiles an expression, leaving exactly one value on the stack.
func (a *asm) expr(e Expr) {
	if v, n, ok := a.fold(e); ok {
		a.pending += n
		a.emitConst(v)
		return
	}
	a.pending++
	switch x := e.(type) {
	case *NumberLit:
		a.emitConst(NumberValue(x.Value))
	case *StringLit:
		a.emitConst(StringValue(x.Value))
	case *BoolLit:
		a.emitConst(BoolValue(x.Value))
	case *NullLit:
		a.emitConst(NullValue())
	case *ThisLit:
		a.emit(opThis, 0, 0)
		a.push(1)
	case *Ident:
		a.emit(opLoadName, a.c.nameIndex(x.Name), 0)
		a.push(1)
	case *ArrayLit:
		a.emit(opNewArray, 0, 0)
		a.push(1)
		for _, el := range x.Elems {
			if el == nil {
				a.emit(opArrayHole, 0, 0)
				continue
			}
			a.expr(el)
			a.emit(opArrayPush, 0, 0)
			a.pop(1)
		}
	case *ObjectLit:
		a.emit(opNewObject, 0, 0)
		a.push(1)
		for i, k := range x.Keys {
			a.expr(x.Values[i])
			a.emit(opSetProp, a.c.nameIndex(k), 0)
			a.pop(1)
		}
	case *FuncLit:
		p := a.c.compileFunc(x)
		a.emit(opClosure, p.index, 0)
		a.push(1)
	case *UnaryExpr:
		a.unary(x)
	case *UpdateExpr:
		a.update(x)
	case *BinaryExpr:
		a.expr(x.L)
		a.expr(x.R)
		a.emit(opBinary, binOpIndex[x.Op], 0)
		a.pop(1)
	case *LogicalExpr:
		a.expr(x.L)
		op := opJumpIfFalsePeek
		if x.Op == "||" {
			op = opJumpIfTruePeek
		}
		j := a.emit(op, 0, 0)
		a.pop(1)
		a.expr(x.R)
		a.patch(j, a.pc())
	case *CondExpr:
		a.expr(x.Cond)
		jf := a.emit(opJumpIfFalse, 0, jumpForceEligible)
		a.pop(1)
		a.expr(x.Then)
		a.pop(1)
		jend := a.emit(opJump, 0, 0)
		a.patch(jf, a.pc())
		a.expr(x.Else)
		a.pop(1)
		a.patch(jend, a.pc())
		a.push(1)
	case *AssignExpr:
		a.assign(x)
	case *SeqExpr:
		for i, sub := range x.Exprs {
			if i > 0 {
				a.emit(opPop, 0, 0)
				a.pop(1)
			}
			a.expr(sub)
		}
	case *CallExpr:
		a.call(x)
	case *NewExpr:
		a.expr(x.Callee)
		a.emit(opPrepNew, 0, 0)
		a.pop(1)
		a.calls++
		for _, arg := range x.Args {
			a.expr(arg)
		}
		a.emit(opNew, int32(len(x.Args)), 0)
		a.pop(len(x.Args))
		a.push(1)
		a.calls--
	case *MemberExpr:
		a.expr(x.Object)
		if x.Computed {
			a.expr(x.Property)
			a.emit(opGetMemberDyn, 0, 0)
			a.pop(1)
		} else {
			a.emit(opGetMember, a.c.nameIndex(x.Property.(*StringLit).Value), 0)
		}
	default:
		panic("js: unhandled expression in compiler")
	}
}

func (a *asm) unary(x *UnaryExpr) {
	switch x.Op {
	case "typeof":
		if id, ok := x.X.(*Ident); ok {
			// typeof of an identifier never charges for the operand: the
			// name is looked up directly, not evaluated as a node.
			a.emit(opTypeofName, a.c.nameIndex(id.Name), 0)
			a.push(1)
			return
		}
		a.expr(x.X)
		a.emit(opTypeofVal, 0, 0)
	case "delete":
		m, ok := x.X.(*MemberExpr)
		if !ok {
			// delete of a non-member is true without evaluating the operand.
			a.emitConst(BoolValue(true))
			return
		}
		a.expr(m.Object)
		if m.Computed {
			a.expr(m.Property)
			a.emit(opDelMemberDyn, 0, 0)
			a.pop(1)
		} else {
			a.emit(opDelMember, a.c.nameIndex(m.Property.(*StringLit).Value), 0)
		}
	case "void":
		a.expr(x.X)
		a.emit(opVoid, 0, 0)
	case "!":
		a.expr(x.X)
		a.emit(opNot, 0, 0)
	case "-":
		a.expr(x.X)
		a.emit(opNeg, 0, 0)
	case "+":
		a.expr(x.X)
		a.emit(opPlus, 0, 0)
	case "~":
		a.expr(x.X)
		a.emit(opBitNot, 0, 0)
	default:
		panic("js: unhandled unary in compiler")
	}
}

func (a *asm) update(x *UpdateExpr) {
	a.expr(x.X) // full evaluation of the target, charges included
	delta := int32(1)
	if x.Op == "--" {
		delta = -1
	}
	prefix := int32(0)
	if x.Prefix {
		prefix = 1
	}
	a.emit(opIncDec, delta, prefix)
	a.push(1) // pops old, pushes result then store value
	switch t := x.X.(type) {
	case *Ident:
		a.emit(opStoreNamePop, a.c.nameIndex(t.Name), 0)
		a.pop(1)
	case *MemberExpr:
		// The store re-evaluates the object (and computed property), each
		// charged again as a node entry; the member node itself is not
		// re-charged.
		a.expr(t.Object)
		if t.Computed {
			a.expr(t.Property)
			a.emit(opSetMemberDyn, 0, 0)
			a.pop(3)
		} else {
			a.emit(opSetMember, a.c.nameIndex(t.Property.(*StringLit).Value), 0)
			a.pop(2)
		}
	default:
		a.emit(opInvalidTarget, 0, 0)
		a.pop(1)
	}
}

func (a *asm) assign(x *AssignExpr) {
	if x.Op != "=" {
		a.expr(x.Target)
		a.expr(x.Value)
		op := x.Op[:len(x.Op)-1]
		a.emit(opBinary, binOpIndex[op], 0)
		a.pop(1)
	} else {
		a.expr(x.Value)
	}
	switch t := x.Target.(type) {
	case *Ident:
		a.emit(opStoreName, a.c.nameIndex(t.Name), 0)
	case *MemberExpr:
		a.expr(t.Object)
		if t.Computed {
			a.expr(t.Property)
			a.emit(opSetMemberDyn, 0, 1)
			a.pop(2)
		} else {
			a.emit(opSetMember, a.c.nameIndex(t.Property.(*StringLit).Value), 1)
			a.pop(1)
		}
	default:
		a.emit(opInvalidTarget, 0, 0)
	}
}

func (a *asm) call(x *CallExpr) {
	if m, ok := x.Callee.(*MemberExpr); ok {
		a.expr(m.Object)
		if m.Computed {
			a.expr(m.Property)
			a.emit(opPrepCallMember, -1, 1)
			a.pop(2)
		} else {
			a.emit(opPrepCallMember, a.c.nameIndex(m.Property.(*StringLit).Value), 0)
			a.pop(1)
		}
	} else {
		a.expr(x.Callee)
		desc := int32(-1)
		if id, ok := x.Callee.(*Ident); ok {
			desc = a.c.nameIndex(id.Name)
		}
		a.emit(opPrepCall, desc, 0)
		a.pop(1)
	}
	a.calls++
	for _, arg := range x.Args {
		a.expr(arg)
	}
	a.emit(opCall, int32(len(x.Args)), 0)
	a.pop(len(x.Args))
	a.push(1)
	a.calls--
}

// fold evaluates literal-only subexpressions at compile time. It returns
// the folded value, the number of node entries the folded subtree charges
// (so the constant carries the same step cost), and whether folding
// applied. Only operations with no side channel
// are folded: string concatenation allocates (heap accounting, spray
// hooks) and string comparison bills scan work, so both stay runtime ops.
func (a *asm) fold(e Expr) (Value, int32, bool) {
	switch x := e.(type) {
	case *NumberLit:
		return NumberValue(x.Value), 1, true
	case *StringLit:
		return StringValue(x.Value), 1, true
	case *BoolLit:
		return BoolValue(x.Value), 1, true
	case *NullLit:
		return NullValue(), 1, true
	case *UnaryExpr:
		v, n, ok := a.fold(x.X)
		if !ok {
			return Value{}, 0, false
		}
		switch x.Op {
		case "!":
			return BoolValue(!v.ToBoolean()), n + 1, true
		case "-":
			return NumberValue(-v.ToNumber()), n + 1, true
		case "+":
			return NumberValue(v.ToNumber()), n + 1, true
		case "~":
			return NumberValue(float64(^toInt32(v.ToNumber()))), n + 1, true
		case "void":
			return Undefined(), n + 1, true
		case "typeof":
			if _, isIdent := x.X.(*Ident); isIdent {
				return Value{}, 0, false
			}
			return StringValue(v.TypeOf()), n + 1, true
		}
		return Value{}, 0, false
	case *BinaryExpr:
		l, ln, ok := a.fold(x.L)
		if !ok {
			return Value{}, 0, false
		}
		r, rn, ok := a.fold(x.R)
		if !ok {
			return Value{}, 0, false
		}
		if l.IsString() && r.IsString() {
			// Concatenation allocates and comparisons charge scan work.
			return Value{}, 0, false
		}
		switch x.Op {
		case "+":
			if l.IsString() || r.IsString() {
				return Value{}, 0, false
			}
		case "instanceof", "in":
			return Value{}, 0, false
		}
		v, err := foldInterp.binaryOp(x.Op, l, r)
		if err != nil {
			return Value{}, 0, false
		}
		return v, ln + rn + 1, true
	}
	return Value{}, 0, false
}

// foldInterp evaluates constant folds; its budget is never consumable
// because folded operand kinds (non-string primitives) charge nothing.
var foldInterp = &Interp{StepLimit: 1 << 62, MaxHeap: 1 << 62}
