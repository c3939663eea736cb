package js

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Runtime limits protecting the host from hostile scripts. Heap sprays in
// the corpus allocate a few hundred MB; the cap is well above that while
// still bounding a runaway loop.
const (
	DefaultStepLimit = 200_000_000
	DefaultMaxHeap   = 4 << 30
	maxStringLen     = 1 << 30
)

// ErrBudget is returned when a script exceeds its step budget.
var ErrBudget = errors.New("js: step budget exceeded")

// ErrHeapLimit is returned when a script exceeds the heap cap.
var ErrHeapLimit = errors.New("js: heap limit exceeded")

// FatalError is a host-raised error that models abrupt process termination
// (e.g. a control-flow hijack or crash): it is not catchable by try/catch
// and does not run finally blocks — once control is hijacked, the epilogue
// never executes.
type FatalError struct {
	Err error
}

// Error implements error.
func (e *FatalError) Error() string { return "js: fatal: " + e.Err.Error() }

// Unwrap exposes the cause.
func (e *FatalError) Unwrap() error { return e.Err }

// ThrowError wraps a thrown Javascript value as a Go error.
type ThrowError struct {
	Value Value
}

// Error implements error.
func (e *ThrowError) Error() string {
	v := e.Value
	if o := v.Object(); o != nil {
		name, _ := o.GetOwn("name")
		msg, _ := o.GetOwn("message")
		if name.IsString() || msg.IsString() {
			return fmt.Sprintf("js: uncaught %s: %s", name.Str(), msg.Str())
		}
	}
	return "js: uncaught " + ToDisplay(v)
}

// Control-flow signals. They travel as errors and never escape Run.
var (
	errBreak    = errors.New("break")
	errContinue = errors.New("continue")
)

type returnSignal struct{ value Value }

func (returnSignal) Error() string { return "return outside function" }

// Scope is one lexical environment.
type Scope struct {
	vars   map[string]Value
	parent *Scope
}

// NewScope returns a child scope.
func NewScope(parent *Scope) *Scope {
	return &Scope{vars: make(map[string]Value), parent: parent}
}

// Lookup finds a variable walking the scope chain.
func (sc *Scope) Lookup(name string) (Value, bool) {
	for s := sc; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return Undefined(), false
}

// Declare defines name in this scope.
func (sc *Scope) Declare(name string, v Value) { sc.vars[name] = v }

// Assign sets name in the nearest declaring scope, falling back to the
// root (implicit global) when undeclared.
func (sc *Scope) Assign(name string, v Value) {
	for s := sc; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
		if s.parent == nil {
			s.vars[name] = v
			return
		}
	}
}

// Interp executes Javascript programs.
type Interp struct {
	// Global is the root scope holding builtins and host objects.
	Global *Scope
	// This is the value of 'this' at top level (the PDF reader installs
	// the Doc object here).
	This Value
	// HeapBytes tracks cumulative script allocations (strings, array
	// slots). Heap-spray detection reads this through OnAlloc.
	HeapBytes int64
	// OnAlloc, when set, observes every allocation delta.
	OnAlloc func(delta int64)
	// OnLargeString, when set, observes every string allocation of at
	// least LargeStringUnits UTF-16 units, in allocation order, right after
	// its OnAlloc charge. The reader's exploit emulation uses it to locate
	// sprayed payload blocks, the way a hijacked control flow would land
	// inside spray memory. The value may be an unflattened concatenation:
	// Value.Contains searches it without building its bytes, and Str()
	// builds them once (a cost the observer should pay only when it must).
	OnLargeString func(v Value)
	// LargeStringUnits overrides the large-string threshold (0 = 32768).
	LargeStringUnits int
	// StepLimit bounds interpreter steps (0 = DefaultStepLimit).
	StepLimit int64
	// MaxHeap bounds HeapBytes (0 = DefaultMaxHeap).
	MaxHeap int64
	// Force, when non-nil, intercepts force-eligible conditional branches
	// in the bytecode VM (if/else and ternaries; never loop back-edges):
	// each decision consults the ForceState, which may override the
	// natural outcome to steer execution down an unexplored arm. Set by
	// ExploreForced; the tree-walker ignores it.
	Force *ForceState
	// Units overrides the compiled-unit cache (nil = DefaultUnits).
	Units *UnitCache

	steps    int64
	curScope *Scope
	// treeWalk runs the recursive evaluator instead of the bytecode VM. It
	// is the reference the differential tests compare the VM against;
	// nothing outside them sets it.
	treeWalk bool

	// unitsMemo caches the most recent UTF-16 re-encoding done by the
	// string builtins. Decoder loops (charCodeAt over an escaped payload)
	// hit the same string thousands of times; the memo makes them O(n)
	// wall-clock while the work() billing stays exactly as charged before,
	// so budget-exhaustion points are unchanged.
	unitsMemoStr string
	unitsMemo    []uint16
}

// units16 returns s as UTF-16 code units, memoizing the last conversion.
// The s == memo comparison short-circuits on identical backing pointers,
// so repeated calls against one string value never rescan it.
func (it *Interp) units16(s string) []uint16 {
	if it.unitsMemo != nil && s == it.unitsMemoStr {
		return it.unitsMemo
	}
	u := stringUnits(s)
	it.unitsMemoStr, it.unitsMemo = s, u
	return u
}

// New returns an interpreter with builtins installed.
func New() *Interp {
	it := &Interp{Global: &Scope{vars: make(map[string]Value)}}
	installBuiltins(it)
	return it
}

// Steps returns the number of interpreter steps consumed so far.
func (it *Interp) Steps() int64 { return it.steps }

func (it *Interp) step() error {
	it.steps++
	limit := it.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	if it.steps > limit {
		return ErrBudget
	}
	return nil
}

// chargeSteps bills a folded step charge of k node entries at once. It
// reproduces the tree-walker's behavior bit-for-bit: there, charges land one
// step at a time and execution stops at the first step past the limit, so on
// budget exhaustion the visible counter reads limit+1 rather than
// overshooting by the folded amount.
func (it *Interp) chargeSteps(k int64) error {
	limit := it.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	if it.steps+k > limit {
		if it.steps <= limit {
			it.steps = limit + 1
		} else {
			it.steps++
		}
		return ErrBudget
	}
	it.steps += k
	return nil
}

// workDivisor converts bytes of non-allocating scan work (string searches,
// comparisons, UTF-16 re-encoding) into interpreter steps. Without this,
// operations like indexOf on a megabyte haystack cost one step each and the
// step budget stops bounding wall-clock time.
const workDivisor = 64

// work charges n bytes of scan work against the step budget.
func (it *Interp) work(n int) error {
	if n > workDivisor {
		it.steps += int64(n) / workDivisor
	}
	limit := it.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	if it.steps > limit {
		return ErrBudget
	}
	return nil
}

func (it *Interp) alloc(delta int64) error {
	it.HeapBytes += delta
	if it.OnAlloc != nil {
		it.OnAlloc(delta)
	}
	maxHeap := it.MaxHeap
	if maxHeap == 0 {
		maxHeap = DefaultMaxHeap
	}
	if it.HeapBytes > maxHeap {
		return ErrHeapLimit
	}
	return nil
}

// newString wraps a flat string with heap accounting.
func (it *Interp) newString(s string) (Value, error) {
	return it.track(StringValue(s))
}

// concat implements string `+`. Unit counts are additive and both operands
// carry theirs, so the result needs no rescan. A result of ropeMinBytes or
// more becomes a rope node sharing both operands instead of a copy; the
// accounting is that of the flat string it stands for.
func (it *Interp) concat(l, r Value) (Value, error) {
	n := l.byteLen() + r.byteLen()
	v := Value{kind: KindString, strLen: l.strLen + r.strLen}
	switch {
	case n < ropeMinBytes:
		v.str = l.Str() + r.Str()
	case r.byteLen() == 0:
		v = l
	case l.byteLen() == 0:
		v = r
	default:
		v.rope = newRope(l, r, n)
	}
	return it.track(v)
}

// track charges a new string value to the heap — two bytes per UTF-16
// unit, as in real engines — and reports it to OnLargeString when large.
func (it *Interp) track(v Value) (Value, error) {
	if v.byteLen() > maxStringLen {
		return Undefined(), ErrHeapLimit
	}
	if err := it.alloc(int64(v.strLen) * 2); err != nil {
		return Undefined(), err
	}
	if it.OnLargeString != nil {
		threshold := it.LargeStringUnits
		if threshold == 0 {
			threshold = 32768
		}
		if v.strLen >= threshold {
			it.OnLargeString(v)
		}
	}
	return v, nil
}

// throwTypeError throws a TypeError-shaped object.
func (it *Interp) throwTypeError(format string, args ...any) error {
	return it.throwNamed("TypeError", fmt.Sprintf(format, args...))
}

func (it *Interp) throwNamed(name, msg string) error {
	o := NewObject()
	o.Class = ClassError
	o.Set("name", StringValue(name))
	o.Set("message", StringValue(msg))
	return &ThrowError{Value: ObjectValue(o)}
}

// Run parses and executes src in the global scope, returning the completion
// value (the value of the last expression statement). Compiled units are
// reused across runs through the content-addressed unit cache.
func (it *Interp) Run(src string) (Value, error) {
	if it.treeWalk {
		prog, err := Parse(src)
		if err != nil {
			return Undefined(), err
		}
		return it.runProgramTree(prog)
	}
	code, err := it.units().Load(src)
	if err != nil {
		return Undefined(), err
	}
	return it.runCode(code, it.Global, modeProgram)
}

// RunProgram executes a parsed program in the global scope.
func (it *Interp) RunProgram(prog *Program) (Value, error) {
	if it.treeWalk {
		return it.runProgramTree(prog)
	}
	return it.runCode(Compile(prog), it.Global, modeProgram)
}

// RunCode executes a precompiled unit in the global scope with program
// semantics. The reader uses it to run instrumentation prologue/epilogue
// units compiled once at instrument time.
func (it *Interp) RunCode(code *Code) (Value, error) {
	return it.runCode(code, it.Global, modeProgram)
}

func (it *Interp) units() *UnitCache {
	if it.Units != nil {
		return it.Units
	}
	return DefaultUnits
}

// runProgramTree is the recursive-evaluator program path, kept as the
// reference implementation for the differential harness.
func (it *Interp) runProgramTree(prog *Program) (Value, error) {
	sc := it.Global
	it.curScope = sc
	hoist(prog.Body, sc, it)
	var completion Value
	for _, st := range prog.Body {
		v, err := it.execStmt(st, sc)
		if err != nil {
			if _, isRet := err.(returnSignal); isRet {
				return Undefined(), it.throwNamed("SyntaxError", "return outside function")
			}
			if err == errBreak || err == errContinue {
				return Undefined(), it.throwNamed("SyntaxError", "break/continue outside loop")
			}
			return Undefined(), err
		}
		if v.Kind() != KindUndefined || isExprStmt(st) {
			completion = v
		}
	}
	return completion, nil
}

func isExprStmt(st Stmt) bool {
	_, ok := st.(*ExprStmt)
	return ok
}

// hoist declares vars (undefined) and function declarations into sc.
func hoist(body []Stmt, sc *Scope, it *Interp) {
	for _, st := range body {
		hoistStmt(st, sc, it)
	}
}

func hoistStmt(st Stmt, sc *Scope, it *Interp) {
	switch s := st.(type) {
	case *VarStmt:
		for _, d := range s.Decls {
			if _, exists := sc.vars[d.Name]; !exists {
				sc.Declare(d.Name, Undefined())
			}
		}
	case *FuncDecl:
		fn := &Object{Class: ClassFunction, Name: s.Name, Fn: s.Fn, Env: sc, props: make(map[string]Value)}
		sc.Declare(s.Name, ObjectValue(fn))
	case *IfStmt:
		hoistStmt(s.Then, sc, it)
		if s.Else != nil {
			hoistStmt(s.Else, sc, it)
		}
	case *WhileStmt:
		hoistStmt(s.Body, sc, it)
	case *DoWhileStmt:
		hoistStmt(s.Body, sc, it)
	case *ForStmt:
		if s.Init != nil {
			hoistStmt(s.Init, sc, it)
		}
		hoistStmt(s.Body, sc, it)
	case *ForInStmt:
		if s.Declare {
			if _, exists := sc.vars[s.VarName]; !exists {
				sc.Declare(s.VarName, Undefined())
			}
		}
		hoistStmt(s.Body, sc, it)
	case *BlockStmt:
		hoist(s.Body, sc, it)
	case *TryStmt:
		hoist(s.Body.Body, sc, it)
		if s.Catch != nil {
			hoist(s.Catch.Body, sc, it)
		}
		if s.Finally != nil {
			hoist(s.Finally.Body, sc, it)
		}
	case *SwitchStmt:
		for _, c := range s.Cases {
			hoist(c.Body, sc, it)
		}
	}
}

// execStmt executes one statement, returning its completion value.
func (it *Interp) execStmt(st Stmt, sc *Scope) (Value, error) {
	if err := it.step(); err != nil {
		return Undefined(), err
	}
	switch s := st.(type) {
	case *EmptyStmt:
		return Undefined(), nil
	case *VarStmt:
		for _, d := range s.Decls {
			if d.Init != nil {
				v, err := it.eval(d.Init, sc)
				if err != nil {
					return Undefined(), err
				}
				declareVar(sc, d.Name, v)
			} else if _, exists := lookupDeclaring(sc, d.Name); !exists {
				declareVar(sc, d.Name, Undefined())
			}
		}
		return Undefined(), nil
	case *FuncDecl:
		// Hoisted already.
		return Undefined(), nil
	case *ExprStmt:
		return it.eval(s.X, sc)
	case *IfStmt:
		cond, err := it.eval(s.Cond, sc)
		if err != nil {
			return Undefined(), err
		}
		if cond.ToBoolean() {
			return it.execStmt(s.Then, sc)
		}
		if s.Else != nil {
			return it.execStmt(s.Else, sc)
		}
		return Undefined(), nil
	case *WhileStmt:
		for {
			cond, err := it.eval(s.Cond, sc)
			if err != nil {
				return Undefined(), err
			}
			if !cond.ToBoolean() {
				return Undefined(), nil
			}
			if _, err := it.execStmt(s.Body, sc); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err == errContinue {
					continue
				}
				return Undefined(), err
			}
		}
	case *DoWhileStmt:
		for {
			if _, err := it.execStmt(s.Body, sc); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			cond, err := it.eval(s.Cond, sc)
			if err != nil {
				return Undefined(), err
			}
			if !cond.ToBoolean() {
				return Undefined(), nil
			}
		}
	case *ForStmt:
		if s.Init != nil {
			if _, err := it.execStmt(s.Init, sc); err != nil {
				return Undefined(), err
			}
		}
		for {
			if s.Cond != nil {
				cond, err := it.eval(s.Cond, sc)
				if err != nil {
					return Undefined(), err
				}
				if !cond.ToBoolean() {
					return Undefined(), nil
				}
			}
			if _, err := it.execStmt(s.Body, sc); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if s.Post != nil {
				if _, err := it.eval(s.Post, sc); err != nil {
					return Undefined(), err
				}
			}
		}
	case *ForInStmt:
		objV, err := it.eval(s.Object, sc)
		if err != nil {
			return Undefined(), err
		}
		o := objV.Object()
		if o == nil {
			return Undefined(), nil // for-in over non-object iterates nothing
		}
		for _, key := range o.Keys() {
			kv := StringValue(key)
			if s.Declare {
				declareVar(sc, s.VarName, kv)
			} else {
				sc.Assign(s.VarName, kv)
			}
			if _, err := it.execStmt(s.Body, sc); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
		}
		return Undefined(), nil
	case *ReturnStmt:
		v := Undefined()
		if s.X != nil {
			var err error
			v, err = it.eval(s.X, sc)
			if err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), returnSignal{value: v}
	case *BreakStmt:
		return Undefined(), errBreak
	case *ContinueStmt:
		return Undefined(), errContinue
	case *BlockStmt:
		var completion Value
		for _, inner := range s.Body {
			v, err := it.execStmt(inner, sc)
			if err != nil {
				return Undefined(), err
			}
			if isExprStmt(inner) {
				completion = v
			}
		}
		return completion, nil
	case *ThrowStmt:
		v, err := it.eval(s.X, sc)
		if err != nil {
			return Undefined(), err
		}
		return Undefined(), &ThrowError{Value: v}
	case *TryStmt:
		_, tryErr := it.execStmt(s.Body, sc)
		var fatal *FatalError
		if errors.As(tryErr, &fatal) {
			// Hijack/crash: no catch, no finally.
			return Undefined(), tryErr
		}
		var thrown *ThrowError
		if tryErr != nil {
			if errors.As(tryErr, &thrown) && s.Catch != nil {
				catchScope := NewScope(sc)
				catchScope.Declare(s.CatchName, thrown.Value)
				_, tryErr = it.execStmt(s.Catch, catchScope)
			}
		}
		if s.Finally != nil {
			if _, finErr := it.execStmt(s.Finally, sc); finErr != nil {
				return Undefined(), finErr
			}
		}
		if tryErr != nil {
			return Undefined(), tryErr
		}
		return Undefined(), nil
	case *SwitchStmt:
		disc, err := it.eval(s.Disc, sc)
		if err != nil {
			return Undefined(), err
		}
		matched := -1
		defaultIdx := -1
		for i, c := range s.Cases {
			if c.Test == nil {
				defaultIdx = i
				continue
			}
			tv, err := it.eval(c.Test, sc)
			if err != nil {
				return Undefined(), err
			}
			if strictEquals(disc, tv) {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = defaultIdx
		}
		if matched < 0 {
			return Undefined(), nil
		}
		for i := matched; i < len(s.Cases); i++ {
			for _, inner := range s.Cases[i].Body {
				if _, err := it.execStmt(inner, sc); err != nil {
					if err == errBreak {
						return Undefined(), nil
					}
					return Undefined(), err
				}
			}
		}
		return Undefined(), nil
	default:
		return Undefined(), fmt.Errorf("js: unhandled statement %T", st)
	}
}

// declareVar declares into the nearest function-level scope (approximated by
// the current scope, since blocks share their function's scope in this
// interpreter: block statements do not create scopes).
func declareVar(sc *Scope, name string, v Value) { sc.vars[name] = v }

func lookupDeclaring(sc *Scope, name string) (Value, bool) {
	v, ok := sc.vars[name]
	return v, ok
}

// callFunction invokes a callable object.
func (it *Interp) callFunction(fn *Object, this Value, args []Value) (Value, error) {
	if err := it.step(); err != nil {
		return Undefined(), err
	}
	if fn.Host != nil {
		return fn.Host(it, this, args)
	}
	if fn.Proto != nil {
		return it.callCompiled(fn, this, args)
	}
	if fn.Fn == nil {
		return Undefined(), it.throwTypeError("%s is not a function", fn.Name)
	}
	scope := NewScope(fn.Env)
	for i, p := range fn.Fn.Params {
		if i < len(args) {
			scope.Declare(p, args[i])
		} else {
			scope.Declare(p, Undefined())
		}
	}
	argObj := NewArray(args...)
	scope.Declare("arguments", ObjectValue(argObj))
	if fn.Fn.Name != "" {
		if _, exists := scope.vars[fn.Fn.Name]; !exists {
			scope.Declare(fn.Fn.Name, ObjectValue(fn))
		}
	}
	hoist(fn.Fn.Body, scope, it)

	prevScope := it.curScope
	prevThis := it.This
	it.curScope = scope
	it.This = this
	defer func() {
		it.curScope = prevScope
		it.This = prevThis
	}()

	for _, st := range fn.Fn.Body {
		if _, err := it.execStmt(st, scope); err != nil {
			if ret, ok := err.(returnSignal); ok {
				return ret.value, nil
			}
			return Undefined(), err
		}
	}
	return Undefined(), nil
}

// CallValue invokes a callable value from host code.
func (it *Interp) CallValue(v Value, this Value, args []Value) (Value, error) {
	o := v.Object()
	if o == nil || !o.IsCallable() {
		return Undefined(), it.throwTypeError("value is not callable")
	}
	return it.callFunction(o, this, args)
}

// CurrentScope exposes the scope of the innermost active call (used by the
// eval builtin).
func (it *Interp) CurrentScope() *Scope {
	if it.curScope == nil {
		return it.Global
	}
	return it.curScope
}

// EvalInScope parses and runs src in the given scope (eval semantics).
// Compiled units are cached by content hash, so unpacker loops that eval the
// same decoded payload repeatedly compile it once.
func (it *Interp) EvalInScope(src string, sc *Scope) (Value, error) {
	if it.treeWalk {
		return it.evalInScopeTree(src, sc)
	}
	code, err := it.units().Load(src)
	if err != nil {
		// eval of malformed source throws a catchable SyntaxError.
		return Undefined(), it.throwNamed("SyntaxError", err.Error())
	}
	return it.runCode(code, sc, modeEval)
}

func (it *Interp) evalInScopeTree(src string, sc *Scope) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Undefined(), it.throwNamed("SyntaxError", err.Error())
	}
	hoist(prog.Body, sc, it)
	var completion Value
	for _, st := range prog.Body {
		v, err := it.execStmt(st, sc)
		if err != nil {
			if ret, ok := err.(returnSignal); ok {
				return ret.value, nil
			}
			return Undefined(), err
		}
		if isExprStmt(st) {
			completion = v
		}
	}
	return completion, nil
}

// ToDisplay renders a value for diagnostics and alert messages.
func ToDisplay(v Value) string {
	s, err := valueToString(nil, v)
	if err != nil {
		return "<error>"
	}
	return s
}

// toStringValue is ToString returning a string Value. String values pass
// through untouched, keeping a rope unflattened and its unit count cached.
func toStringValue(it *Interp, v Value) (Value, error) {
	if v.IsString() {
		return v, nil
	}
	s, err := valueToString(it, v)
	if err != nil {
		return Undefined(), err
	}
	return StringValue(s), nil
}

// valueToString implements ToString; it may need the interpreter for
// join-based array conversion (nil is tolerated for display purposes).
func valueToString(it *Interp, v Value) (string, error) {
	switch v.Kind() {
	case KindUndefined:
		return "undefined", nil
	case KindNull:
		return "null", nil
	case KindBool:
		if v.Bool() {
			return "true", nil
		}
		return "false", nil
	case KindNumber:
		return numberToString(v.num), nil
	case KindString:
		return v.Str(), nil
	default:
		o := v.obj
		if o == nil {
			return "null", nil
		}
		switch {
		case o.Class == ClassArray:
			// Builder keeps this linear; += on a string accumulator is
			// quadratic in the array length, which hostile scripts exploit.
			var b strings.Builder
			for i := 0; i < o.arrayLen(); i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				el := o.getIndex(i)
				if el.IsUndefined() || el.IsNull() {
					continue
				}
				s, err := valueToString(it, el)
				if err != nil {
					return "", err
				}
				b.WriteString(s)
				if it != nil {
					if err := it.work(len(s) + 1); err != nil {
						return "", err
					}
				}
			}
			return b.String(), nil
		case o.IsCallable():
			if o.Fn != nil && o.Fn.Source != "" {
				return o.Fn.Source, nil
			}
			return "function " + o.Name + "() { [native code] }", nil
		case o.Class == ClassError:
			name, _ := o.GetOwn("name")
			msg, _ := o.GetOwn("message")
			return name.Str() + ": " + msg.Str(), nil
		default:
			if ts, ok := o.GetOwn("toString"); ok && it != nil {
				if tso := ts.Object(); tso.IsCallable() {
					rv, err := it.callFunction(tso, v, nil)
					if err != nil {
						return "", err
					}
					return valueToString(it, rv)
				}
			}
			return "[object " + o.Class + "]", nil
		}
	}
}

func strictEquals(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindUndefined, KindNull:
		return true
	case KindBool, KindNumber:
		return a.num == b.num // NaN != NaN naturally
	case KindString:
		return a.Str() == b.Str()
	default:
		return a.obj == b.obj
	}
}

func looseEquals(it *Interp, a, b Value) (bool, error) {
	if a.Kind() == b.Kind() {
		return strictEquals(a, b), nil
	}
	ak, bk := a.Kind(), b.Kind()
	switch {
	case (ak == KindNull && bk == KindUndefined) || (ak == KindUndefined && bk == KindNull):
		return true, nil
	case ak == KindNumber && bk == KindString:
		return a.num == b.ToNumber(), nil
	case ak == KindString && bk == KindNumber:
		return a.ToNumber() == b.num, nil
	case ak == KindBool:
		return looseEquals(it, NumberValue(a.ToNumber()), b)
	case bk == KindBool:
		return looseEquals(it, a, NumberValue(b.ToNumber()))
	case (ak == KindNumber || ak == KindString) && bk == KindObject:
		prim, err := toPrimitive(it, b)
		if err != nil {
			return false, err
		}
		return looseEquals(it, a, prim)
	case ak == KindObject && (bk == KindNumber || bk == KindString):
		prim, err := toPrimitive(it, a)
		if err != nil {
			return false, err
		}
		return looseEquals(it, prim, b)
	default:
		return false, nil
	}
}

func toPrimitive(it *Interp, v Value) (Value, error) {
	if v.Kind() != KindObject {
		return v, nil
	}
	s, err := valueToString(it, v)
	if err != nil {
		return Undefined(), err
	}
	return StringValue(s), nil
}

func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(uint32(int64(math.Trunc(f))))
}

func toUint32(f float64) uint32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint32(int64(math.Trunc(f)))
}
