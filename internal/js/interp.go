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
	// ExploreForced.
	Force *ForceState
	// Units overrides the compiled-unit cache (nil = DefaultUnits).
	Units *UnitCache

	steps    int64
	curScope *Scope
	// depth counts the script function calls and array-to-string
	// conversions in progress (maxDepth).
	depth int

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

// chargeSteps bills a folded step charge of k node entries at once. The
// charge model is one step per node entry, stopping at the first step past
// the limit, so on budget exhaustion the visible counter reads limit+1
// rather than overshooting by the folded amount.
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

// maxDepth bounds how deeply script function calls nest, and how deeply
// nested arrays convert to strings; both engines share it. Both recurse on
// the Go stack, where an overflow is a fatal error that ends the whole
// process, so past the cap they throw a catchable RangeError instead, as a
// real engine does when its stack runs out.
const maxDepth = 4096

// errTooDeep is the message of the RangeError thrown past maxDepth.
const errTooDeep = "Maximum call stack size exceeded"

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
	code, err := it.units().Load(src)
	if err != nil {
		return Undefined(), err
	}
	return it.runCode(code, it.Global, modeProgram)
}

// RunProgram executes a parsed program in the global scope.
func (it *Interp) RunProgram(prog *Program) (Value, error) {
	return it.runCode(Compile(prog), it.Global, modeProgram)
}

func (it *Interp) units() *UnitCache {
	if it.Units != nil {
		return it.Units
	}
	return DefaultUnits
}

// declareVar declares into the nearest function-level scope (approximated by
// the current scope, since blocks share their function's scope in this
// interpreter: block statements do not create scopes).
func declareVar(sc *Scope, name string, v Value) { sc.vars[name] = v }

func lookupDeclaring(sc *Scope, name string) (Value, bool) {
	v, ok := sc.vars[name]
	return v, ok
}

// callFunction invokes a callable object; the call itself costs one step.
func (it *Interp) callFunction(fn *Object, this Value, args []Value) (Value, error) {
	if err := it.chargeSteps(1); err != nil {
		return Undefined(), err
	}
	if fn.Host != nil {
		return fn.Host(it, this, args)
	}
	if fn.Proto == nil {
		return Undefined(), it.throwTypeError("%s is not a function", fn.Name)
	}
	if it.depth >= maxDepth {
		return Undefined(), it.throwNamed("RangeError", errTooDeep)
	}
	it.depth++
	defer func() { it.depth-- }()
	return it.callCompiled(fn, this, args)
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
	code, err := it.units().Load(src)
	if err != nil {
		// eval of malformed source throws a catchable SyntaxError.
		return Undefined(), it.throwNamed("SyntaxError", err.Error())
	}
	return it.runCode(code, sc, modeEval)
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
	return toStringDepth(it, v, 0)
}

// toStringDepth is valueToString inside depth enclosing arrays.
func toStringDepth(it *Interp, v Value, depth int) (string, error) {
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
			if o.joining {
				return "", nil
			}
			// Nesting counts against the call-depth cap, so calls and
			// arrays together stay within maxDepth; a display conversion
			// (no interpreter) counts its own nesting.
			if it != nil {
				if it.depth >= maxDepth {
					return "", it.throwNamed("RangeError", errTooDeep)
				}
				it.depth++
				defer func() { it.depth-- }()
			} else if depth >= maxDepth {
				return "", errors.New(errTooDeep)
			}
			o.joining = true
			defer func() { o.joining = false }()
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
				s, err := toStringDepth(it, el, depth+1)
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
			if o.Proto != nil && o.Proto.Lit.Source != "" {
				return o.Proto.Lit.Source, nil
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
