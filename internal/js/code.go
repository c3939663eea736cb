package js

// This file defines the bytecode representation produced by the compiler
// (compile.go) and executed by the stack VM (vm.go). A compiled unit is a
// flat instruction stream plus shared pools: interned names, a deduplicated
// constant pool (with UTF-16 lengths precomputed, so string literals never
// rescan at runtime), and the prototypes of every nested function.
//
// The step budget charges one step at the entry of every statement and
// expression node and every callFunction. The compiler folds those
// per-node charges into the Cost field of the first instruction emitted
// for each node's region, so cumulative step totals and the order of
// charges relative to every observable effect (host calls, allocations,
// hook events) are those of charging node by node.

// Op is a VM opcode.
type Op uint8

// Opcodes. The A/B operands are documented per op; "pool" operands index
// into the owning Code unit.
const (
	opInvalid Op = iota

	// opNop only carries a step Cost (charges with no other effect). The
	// compiler emits it where a node's entry charge cannot be folded into a
	// following instruction (empty statements, loop headers).
	opNop
	// opConst pushes Consts[A].
	opConst
	// opThis pushes the interpreter's current this value.
	opThis
	// opLoadName pushes the variable Names[A] (ReferenceError when unbound).
	opLoadName
	// opTypeofName pushes typeof of Names[A]; unbound names yield
	// "undefined" without throwing.
	opTypeofName
	// opStoreName assigns the top of stack to Names[A] (Scope.Assign,
	// implicit global fallback). The value stays on the stack.
	opStoreName
	// opStoreNamePop is opStoreName but pops the value.
	opStoreNamePop
	// opDeclName pops the top of stack and declares Names[A] in the current
	// scope (var statement with initializer).
	opDeclName
	// opDeclNameUndef declares Names[A] as undefined unless already
	// declared in the current scope (var statement without initializer).
	opDeclNameUndef
	// opPop discards the top of stack.
	opPop
	// opDup duplicates the top of stack.
	opDup
	// opClosure pushes a function object for Protos[A] closing over the
	// current scope.
	opClosure

	// opNewArray pushes an empty array.
	opNewArray
	// opArrayPush pops a value and appends it to the array beneath,
	// charging 16 bytes of heap.
	opArrayPush
	// opArrayHole appends undefined to the array on top without charging
	// (an elided array element allocates nothing).
	opArrayHole
	// opNewObject pushes an empty object.
	opNewObject
	// opSetProp pops a value and sets property Names[A] on the object
	// beneath, charging 32 bytes of heap.
	opSetProp

	// opGetMember pops an object value and pushes property Names[A].
	opGetMember
	// opGetMemberDyn pops a property-name value then an object value.
	opGetMemberDyn
	// opSetMember pops the object and stores the value beneath it into
	// property Names[A]; B=1 keeps the value on the stack, B=0 pops it.
	opSetMember
	// opSetMemberDyn is opSetMember with the property-name value on top of
	// the object.
	opSetMemberDyn
	// opDelMember pops an object value and deletes property Names[A],
	// pushing true.
	opDelMember
	// opDelMemberDyn pops a property-name value then an object value.
	opDelMemberDyn

	// opTypeofVal, opNot, opNeg, opPlus, opBitNot, opVoid replace the top
	// of stack with the unary result.
	opTypeofVal
	opNot
	opNeg
	opPlus
	opBitNot
	opVoid
	// opIncDec pops the old value and pushes the expression result followed
	// by the value to store. A=+1/-1, B=1 for prefix.
	opIncDec
	// opInvalidTarget raises the "invalid assignment target" TypeError
	// (assignments/updates whose target is not an identifier or member
	// expression, raised only after the operands have been evaluated).
	opInvalidTarget
	// opBinary pops r then l and pushes Interp.binaryOp(binOps[A], l, r).
	opBinary

	// opJump sets pc to A.
	opJump
	// opJumpIfFalse pops the condition and jumps to A when falsy.
	opJumpIfFalse
	// opJumpIfTrue pops the condition and jumps to A when truthy.
	opJumpIfTrue
	// opJumpIfFalsePeek jumps to A keeping the value when falsy, otherwise
	// pops it (&& short circuit).
	opJumpIfFalsePeek
	// opJumpIfTruePeek jumps to A keeping the value when truthy, otherwise
	// pops it (|| short circuit).
	opJumpIfTruePeek
	// opCaseJump pops the case test then peeks the switch discriminant;
	// jumps to A when strictly equal (case matching bills no compare
	// work).
	opCaseJump

	// opPrepCall pops the callee value and pushes call info with
	// this=Interp.This. A names the callee for the TypeError message
	// (-1 = "value").
	opPrepCall
	// opPrepCallMember pops the object value (B=1: a property-name value
	// first) and resolves the method Names[A] (A=-1 with B=1), preferring
	// the builtin fast path; pushes call info with this=object.
	opPrepCallMember
	// opPrepNew pops the callee and pushes constructor call info.
	opPrepNew
	// opCall pops A argument values and the pending call info, invokes,
	// and pushes the result.
	opCall
	// opNew is opCall with constructor semantics.
	opNew

	// opForInInit pops the object; non-objects jump to A, otherwise an
	// iterator over Keys() is pushed.
	opForInInit
	// opForInNextDecl advances the top iterator, declaring Names[B] in the
	// current scope; jumps to A (popping the iterator) when exhausted.
	opForInNextDecl
	// opForInNextAssign is opForInNextDecl with Scope.Assign semantics.
	opForInNextAssign

	// opReturn pops the return value and unwinds the frame (running
	// finally blocks).
	opReturn
	// opThrow pops a value and raises it as a ThrowError.
	opThrow
	// opBreakErr / opContinueErr raise the break/continue control signals
	// with no enclosing loop in this frame (they escape to the caller as
	// errors).
	opBreakErr
	opContinueErr
	// opUnwind performs break/continue through enclosing try handlers
	// and for-in iterators; A indexes Unwinds.
	opUnwind

	// opTryPush installs handler Handlers[A].
	opTryPush
	// opTryPopNormal completes a try body: runs the finally block or, when
	// absent, pops the handler and jumps past the catch/finally code.
	opTryPopNormal
	// opCatchEnd completes a catch body normally.
	opCatchEnd
	// opFinallyEnd completes a finally body, resuming the suspended
	// completion (fall through when it was normal).
	opFinallyEnd

	// opSetComp pops the top of stack into the frame completion value
	// (top-level expression statements).
	opSetComp
	// opSetCompIfDef pops the top of stack into the frame completion value
	// only when defined and running with program semantics (top-level
	// if/block values; eval ignores them like EvalInScope does).
	opSetCompIfDef
)

// instr is one VM instruction. Cost is the folded step charge billed before
// the instruction executes.
type instr struct {
	op   Op
	a, b int32
	cost int32
}

// jumpForceEligible, set as the b operand of opJumpIfFalse/opJumpIfTrue,
// marks a conditional jump whose outcome forced execution may override:
// if/else and ternary decisions. Loop back-edges, switch dispatch, and
// &&/|| short-circuits never carry it, so decryptor loops cannot burn the
// path-exploration budget (forced.go).
const jumpForceEligible = 1

// handlerDef is the static description of one try statement.
type handlerDef struct {
	// catchPC is the catch body entry (-1 when absent).
	catchPC int32
	// finallyPC is the finally body entry (-1 when absent).
	finallyPC int32
	// afterPC is the instruction following the whole try statement.
	afterPC int32
	// catchName indexes Names (valid when catchPC >= 0).
	catchName int32
}

// unwindPoint is the static description of a break/continue that must run
// finally blocks or discard for-in iterators on its way to the target.
type unwindPoint struct {
	target int32
	// handlers/iters/calls/sp are the depths live at the target.
	handlers int32
	iters    int32
	calls    int32
	sp       int32
}

// hoistEntry is one declaration hoisted to frame entry.
type hoistEntry struct {
	name string
	// proto is non-nil for function declarations; nil entries declare the
	// name undefined unless already present in the scope.
	proto *FnProto
}

// FnProto is the compiled body of one function literal or declaration.
type FnProto struct {
	// Lit is the original AST node; Params, Name and Source stay visible
	// through it (function.length, toString).
	Lit *FuncLit
	// Unit owns the shared pools.
	Unit *Code

	index    int32
	ins      []instr
	hoists   []hoistEntry
	maxStack int
}

// Code is a compiled program unit.
type Code struct {
	// Consts is the deduplicated literal pool.
	Consts []Value
	// Names is the interned identifier pool.
	Names []string
	// Protos holds every nested function body.
	Protos []*FnProto
	// Handlers and Unwinds hold static control-flow metadata.
	Handlers []handlerDef
	Unwinds  []unwindPoint

	ins      []instr
	hoists   []hoistEntry
	maxStack int

	// srcLen is the source length in bytes, used for cache accounting.
	srcLen int
}

// SizeEstimate approximates the resident size of the unit in bytes for
// cache accounting: instructions across all protos plus pool overhead.
func (c *Code) SizeEstimate() int64 {
	const insSize = 16
	n := int64(len(c.ins)) * insSize
	for _, p := range c.Protos {
		n += int64(len(p.ins)) * insSize
	}
	for _, s := range c.Names {
		n += int64(len(s)) + 16
	}
	for _, v := range c.Consts {
		n += int64(v.byteLen()) + 48
	}
	n += int64(len(c.Handlers))*16 + int64(len(c.Unwinds))*20
	n += int64(c.srcLen) / 4 // AST kept alive via FuncLit back-references
	return n
}

// binOps interns binary operator strings; opBinary carries an index into
// it and dispatches through Interp.binaryOp.
var binOps = []string{
	"+", "-", "*", "/", "%",
	"==", "!=", "===", "!==",
	"<", ">", "<=", ">=",
	"&", "|", "^", "<<", ">>", ">>>",
	"instanceof", "in",
}

var binOpIndex = func() map[string]int32 {
	m := make(map[string]int32, len(binOps))
	for i, s := range binOps {
		m[s] = int32(i)
	}
	return m
}()
