package js

import "errors"

// The VM executes compiled Code units on an explicit value stack. The
// semantic heavy lifting — binary operators, property access, builtin
// method lookup, function invocation, string conversion — goes through
// shared helpers (binaryOp, getMember, lookupMethod, callFunction,
// valueToString), which own work charging, heap accounting and every
// host-visible hook. Control flow is jumps and an explicit handler stack.

// Frame execution modes. Program and eval frames track a completion value
// with their respective capture rules; function frames return via opReturn.
const (
	modeFunc = iota
	modeProgram
	modeEval
)

// Completion kinds: how a frame region finished.
const (
	compNormal = iota
	// compErr carries a Go error (ThrowError, FatalError, budget/heap
	// errors, or the break/continue control sentinels escaping the frame).
	compErr
	// compReturn carries a return value.
	compReturn
	// compJump is a break/continue routed through finally blocks toward a
	// target inside the frame.
	compJump
)

type vmComp struct {
	kind int
	err  error
	val  Value
	up   unwindPoint
}

type vmIter struct {
	keys []string
	idx  int
}

type vmCallInfo struct {
	hf   HostFn
	fn   *Object
	this Value
	newV Value
}

// vmHandler is one active try statement.
type vmHandler struct {
	def              handlerDef
	sp, iters, calls int
	scope            *Scope
	phase            uint8 // 0 = body, 1 = catch, 2 = finally
	pending          vmComp
}

type vmFrame struct {
	unit       *Code
	ins        []instr
	stack      []Value
	sp         int
	pc         int
	scope      *Scope
	program    bool
	completion Value
	handlers   []vmHandler
	iters      []vmIter
	calls      []vmCallInfo
}

// applyHoists declares a frame's hoisted names at its entry: each function
// declaration binds a new closure, and each var is declared undefined
// unless already declared in sc.
func applyHoists(sc *Scope, entries []hoistEntry) {
	for i := range entries {
		e := &entries[i]
		if e.proto != nil {
			fn := &Object{Class: ClassFunction, Name: e.name, Proto: e.proto, Env: sc, props: make(map[string]Value)}
			sc.Declare(e.name, ObjectValue(fn))
		} else if _, exists := sc.vars[e.name]; !exists {
			sc.Declare(e.name, Undefined())
		}
	}
}

// runCode executes a compiled top-level unit in sc.
func (it *Interp) runCode(code *Code, sc *Scope, mode int) (Value, error) {
	if mode == modeProgram {
		it.curScope = sc
	}
	applyHoists(sc, code.hoists)
	f := &vmFrame{
		unit:    code,
		ins:     code.ins,
		stack:   make([]Value, code.maxStack),
		scope:   sc,
		program: mode == modeProgram,
	}
	comp := runFrame(it, f)
	switch comp.kind {
	case compNormal:
		return comp.val, nil
	case compReturn:
		if mode == modeProgram {
			return Undefined(), it.throwNamed("SyntaxError", "return outside function")
		}
		// eval converts a stray return into its value.
		return comp.val, nil
	default:
		if mode == modeProgram && (comp.err == errBreak || comp.err == errContinue) {
			return Undefined(), it.throwNamed("SyntaxError", "break/continue outside loop")
		}
		return Undefined(), comp.err
	}
}

// callCompiled invokes a function object carrying compiled code. Its
// scope is set up in order: parameters, then arguments (which shadows a
// parameter of that name), then the self-name binding, then hoisting.
func (it *Interp) callCompiled(fn *Object, this Value, args []Value) (Value, error) {
	p := fn.Proto
	scope := NewScope(fn.Env)
	for i, pn := range p.Lit.Params {
		if i < len(args) {
			scope.Declare(pn, args[i])
		} else {
			scope.Declare(pn, Undefined())
		}
	}
	argObj := NewArray(args...)
	scope.Declare("arguments", ObjectValue(argObj))
	if p.Lit.Name != "" {
		if _, exists := scope.vars[p.Lit.Name]; !exists {
			scope.Declare(p.Lit.Name, ObjectValue(fn))
		}
	}
	applyHoists(scope, p.hoists)

	prevScope := it.curScope
	prevThis := it.This
	it.curScope = scope
	it.This = this
	defer func() {
		it.curScope = prevScope
		it.This = prevThis
	}()

	f := &vmFrame{
		unit:  p.Unit,
		ins:   p.ins,
		stack: make([]Value, p.maxStack),
		scope: scope,
	}
	comp := runFrame(it, f)
	switch comp.kind {
	case compNormal:
		return Undefined(), nil
	case compReturn:
		return comp.val, nil
	default:
		return Undefined(), comp.err
	}
}

// unwind routes an abrupt completion through the frame's try handlers:
// FatalError skips catch and finally entirely; only ThrowError is
// catchable; every other abrupt completion (break, continue, return,
// budget/heap errors) still runs finally blocks; an abrupt completion
// inside a finally replaces the pending one. It returns (false, _) when
// execution resumes inside the frame and (true, final) when the frame
// exits.
func (f *vmFrame) unwind(it *Interp, comp vmComp) (bool, vmComp) {
	if comp.kind == compErr {
		var fatal *FatalError
		if errors.As(comp.err, &fatal) {
			return true, comp
		}
	}
	for len(f.handlers) > 0 {
		if comp.kind == compJump && len(f.handlers) <= int(comp.up.handlers) {
			break
		}
		h := &f.handlers[len(f.handlers)-1]
		switch h.phase {
		case 0: // try body
			if comp.kind == compErr {
				var thrown *ThrowError
				if errors.As(comp.err, &thrown) && h.def.catchPC >= 0 {
					h.phase = 1
					f.sp = h.sp
					f.iters = f.iters[:h.iters]
					f.calls = f.calls[:h.calls]
					cs := NewScope(h.scope)
					cs.Declare(f.unit.Names[h.def.catchName], thrown.Value)
					f.scope = cs
					f.pc = int(h.def.catchPC)
					return false, vmComp{}
				}
			}
			if h.def.finallyPC >= 0 {
				h.phase = 2
				h.pending = comp
				f.sp = h.sp
				f.iters = f.iters[:h.iters]
				f.calls = f.calls[:h.calls]
				f.scope = h.scope
				f.pc = int(h.def.finallyPC)
				return false, vmComp{}
			}
			f.handlers = f.handlers[:len(f.handlers)-1]
		case 1: // catch body completed abruptly (never re-caught)
			f.scope = h.scope
			if h.def.finallyPC >= 0 {
				h.phase = 2
				h.pending = comp
				f.sp = h.sp
				f.iters = f.iters[:h.iters]
				f.calls = f.calls[:h.calls]
				f.pc = int(h.def.finallyPC)
				return false, vmComp{}
			}
			f.handlers = f.handlers[:len(f.handlers)-1]
		default: // finally completed abruptly: its completion replaces the pending one
			f.scope = h.scope
			f.handlers = f.handlers[:len(f.handlers)-1]
		}
	}
	if comp.kind == compJump {
		f.pc = int(comp.up.target)
		f.sp = int(comp.up.sp)
		f.iters = f.iters[:comp.up.iters]
		f.calls = f.calls[:comp.up.calls]
		return false, vmComp{}
	}
	return true, comp
}

// runFrame is the dispatch loop. It returns the frame's final completion.
func runFrame(it *Interp, f *vmFrame) vmComp {
	ins := f.ins
	names := f.unit.Names
	consts := f.unit.Consts

	for {
		if f.pc >= len(ins) {
			return vmComp{kind: compNormal, val: f.completion}
		}
		in := ins[f.pc]
		f.pc++
		if in.cost != 0 {
			if err := it.chargeSteps(int64(in.cost)); err != nil {
				if exit, final := f.unwind(it, vmComp{kind: compErr, err: err}); exit {
					return final
				}
				continue
			}
		}
		var failErr error
		switch in.op {
		case opNop:
			// cost only
		case opConst:
			f.stack[f.sp] = consts[in.a]
			f.sp++
		case opThis:
			f.stack[f.sp] = it.This
			f.sp++
		case opLoadName:
			name := names[in.a]
			v, ok := f.scope.Lookup(name)
			if !ok {
				failErr = it.throwNamed("ReferenceError", name+" is not defined")
				break
			}
			f.stack[f.sp] = v
			f.sp++
		case opTypeofName:
			v, ok := f.scope.Lookup(names[in.a])
			if !ok {
				f.stack[f.sp] = StringValue("undefined")
			} else {
				f.stack[f.sp] = StringValue(v.TypeOf())
			}
			f.sp++
		case opStoreName:
			f.scope.Assign(names[in.a], f.stack[f.sp-1])
		case opStoreNamePop:
			f.sp--
			f.scope.Assign(names[in.a], f.stack[f.sp])
		case opDeclName:
			f.sp--
			declareVar(f.scope, names[in.a], f.stack[f.sp])
		case opDeclNameUndef:
			name := names[in.a]
			if _, exists := lookupDeclaring(f.scope, name); !exists {
				declareVar(f.scope, name, Undefined())
			}
		case opPop:
			f.sp--
		case opDup:
			f.stack[f.sp] = f.stack[f.sp-1]
			f.sp++
		case opClosure:
			p := f.unit.Protos[in.a]
			fn := &Object{Class: ClassFunction, Name: p.Lit.Name, Proto: p, Env: f.scope, props: make(map[string]Value)}
			f.stack[f.sp] = ObjectValue(fn)
			f.sp++
		case opNewArray:
			f.stack[f.sp] = ObjectValue(NewArray())
			f.sp++
		case opArrayPush:
			f.sp--
			v := f.stack[f.sp]
			arr := f.stack[f.sp-1].obj
			arr.setIndex(arr.arrayLen(), v)
			failErr = it.alloc(16)
		case opArrayHole:
			arr := f.stack[f.sp-1].obj
			arr.setIndex(arr.arrayLen(), Undefined())
		case opNewObject:
			f.stack[f.sp] = ObjectValue(NewObject())
			f.sp++
		case opSetProp:
			f.sp--
			v := f.stack[f.sp]
			f.stack[f.sp-1].obj.Set(names[in.a], v)
			failErr = it.alloc(32)
		case opGetMember:
			v, err := it.getMember(f.stack[f.sp-1], names[in.a])
			if err != nil {
				failErr = err
				break
			}
			f.stack[f.sp-1] = v
		case opGetMemberDyn:
			f.sp--
			if idx, ok := numberIndex(f.stack[f.sp]); ok {
				// a[i] and s[i] with a number key: no key string.
				base := f.stack[f.sp-1]
				if o := base.Object(); o != nil && o.Class == ClassArray && o.getters == nil {
					f.stack[f.sp-1] = o.getIndex(idx)
					break
				}
				if base.IsString() {
					f.stack[f.sp-1], failErr = it.stringCharAt(base, idx)
					break
				}
			}
			name, err := valueToString(it, f.stack[f.sp])
			if err != nil {
				failErr = err
				break
			}
			v, err := it.getMember(f.stack[f.sp-1], name)
			if err != nil {
				failErr = err
				break
			}
			f.stack[f.sp-1] = v
		case opSetMember:
			failErr = f.setMember(it, names[in.a], in.b == 1)
		case opSetMemberDyn:
			f.sp--
			if idx, ok := numberIndex(f.stack[f.sp]); ok {
				if o := f.stack[f.sp-1].Object(); o != nil && o.Class == ClassArray {
					f.sp--
					o.setIndex(idx, f.stack[f.sp-1])
					failErr = f.stored(it, o, in.b == 1)
					break
				}
			}
			name, err := valueToString(it, f.stack[f.sp])
			if err != nil {
				failErr = err
				break
			}
			failErr = f.setMember(it, name, in.b == 1)
		case opDelMember:
			if o := f.stack[f.sp-1].Object(); o != nil {
				o.Delete(names[in.a])
			}
			f.stack[f.sp-1] = BoolValue(true)
		case opDelMemberDyn:
			f.sp--
			name, err := valueToString(it, f.stack[f.sp])
			if err != nil {
				failErr = err
				break
			}
			if o := f.stack[f.sp-1].Object(); o != nil {
				o.Delete(name)
			}
			f.stack[f.sp-1] = BoolValue(true)
		case opTypeofVal:
			f.stack[f.sp-1] = StringValue(f.stack[f.sp-1].TypeOf())
		case opNot:
			f.stack[f.sp-1] = BoolValue(!f.stack[f.sp-1].ToBoolean())
		case opNeg:
			f.stack[f.sp-1] = NumberValue(-f.stack[f.sp-1].ToNumber())
		case opPlus:
			f.stack[f.sp-1] = NumberValue(f.stack[f.sp-1].ToNumber())
		case opBitNot:
			f.stack[f.sp-1] = NumberValue(float64(^toInt32(f.stack[f.sp-1].ToNumber())))
		case opVoid:
			f.stack[f.sp-1] = Undefined()
		case opIncDec:
			old := f.stack[f.sp-1]
			n := old.ToNumber()
			next := n + float64(in.a)
			ret := n
			if in.b == 1 {
				ret = next
			}
			f.stack[f.sp-1] = NumberValue(ret)
			f.stack[f.sp] = NumberValue(next)
			f.sp++
		case opInvalidTarget:
			failErr = it.throwTypeError("invalid assignment target")
		case opBinary:
			f.sp--
			r := f.stack[f.sp]
			l := f.stack[f.sp-1]
			v, err := it.binaryOp(binOps[in.a], l, r)
			if err != nil {
				failErr = err
				break
			}
			f.stack[f.sp-1] = v
		case opJump:
			f.pc = int(in.a)
		case opJumpIfFalse:
			f.sp--
			cond := f.stack[f.sp].ToBoolean()
			if in.b == jumpForceEligible && it.Force != nil {
				cond = it.Force.next(cond)
			}
			if !cond {
				f.pc = int(in.a)
			}
		case opJumpIfTrue:
			f.sp--
			cond := f.stack[f.sp].ToBoolean()
			if in.b == jumpForceEligible && it.Force != nil {
				cond = it.Force.next(cond)
			}
			if cond {
				f.pc = int(in.a)
			}
		case opJumpIfFalsePeek:
			if !f.stack[f.sp-1].ToBoolean() {
				f.pc = int(in.a)
			} else {
				f.sp--
			}
		case opJumpIfTruePeek:
			if f.stack[f.sp-1].ToBoolean() {
				f.pc = int(in.a)
			} else {
				f.sp--
			}
		case opCaseJump:
			f.sp--
			if strictEquals(f.stack[f.sp-1], f.stack[f.sp]) {
				f.pc = int(in.a)
			}
		case opPrepCall:
			f.sp--
			fn := f.stack[f.sp].Object()
			if fn == nil || !fn.IsCallable() {
				desc := "value"
				if in.a >= 0 {
					desc = names[in.a]
				}
				failErr = it.throwTypeError("%s is not a function", desc)
				break
			}
			f.calls = append(f.calls, vmCallInfo{fn: fn, this: it.This})
		case opPrepCallMember:
			var name string
			if in.b == 1 {
				f.sp--
				var err error
				name, err = valueToString(it, f.stack[f.sp])
				if err != nil {
					failErr = err
					break
				}
			} else {
				name = names[in.a]
			}
			f.sp--
			objV := f.stack[f.sp]
			if hf, ok := it.lookupMethod(objV, name); ok {
				f.calls = append(f.calls, vmCallInfo{hf: hf, this: objV})
				break
			}
			fnVal, err := it.getMember(objV, name)
			if err != nil {
				failErr = err
				break
			}
			fn := fnVal.Object()
			if fn == nil || !fn.IsCallable() {
				desc := "value"
				if in.b == 0 {
					desc = name
				}
				failErr = it.throwTypeError("%s is not a function", desc)
				break
			}
			f.calls = append(f.calls, vmCallInfo{fn: fn, this: objV})
		case opPrepNew:
			f.sp--
			calleeV := f.stack[f.sp]
			ctor := calleeV.Object()
			if ctor == nil || !ctor.IsCallable() {
				failErr = it.throwTypeError("constructor is not callable")
				break
			}
			f.calls = append(f.calls, vmCallInfo{fn: ctor, newV: calleeV})
		case opCall:
			argc := int(in.a)
			args := make([]Value, argc)
			copy(args, f.stack[f.sp-argc:f.sp])
			f.sp -= argc
			ci := f.calls[len(f.calls)-1]
			f.calls = f.calls[:len(f.calls)-1]
			var v Value
			var err error
			if ci.hf != nil {
				// Builtin method fast path: no callFunction step.
				v, err = ci.hf(it, ci.this, args)
			} else {
				v, err = it.callFunction(ci.fn, ci.this, args)
			}
			if err != nil {
				failErr = err
				break
			}
			f.stack[f.sp] = v
			f.sp++
		case opNew:
			argc := int(in.a)
			args := make([]Value, argc)
			copy(args, f.stack[f.sp-argc:f.sp])
			f.sp -= argc
			ci := f.calls[len(f.calls)-1]
			f.calls = f.calls[:len(f.calls)-1]
			v, err := it.construct(ci.fn, ci.newV, args)
			if err != nil {
				failErr = err
				break
			}
			f.stack[f.sp] = v
			f.sp++
		case opForInInit:
			f.sp--
			o := f.stack[f.sp].Object()
			if o == nil {
				f.pc = int(in.a) // for-in over non-object iterates nothing
			} else {
				f.iters = append(f.iters, vmIter{keys: o.Keys()})
			}
		case opForInNextDecl, opForInNextAssign:
			itr := &f.iters[len(f.iters)-1]
			if itr.idx >= len(itr.keys) {
				f.iters = f.iters[:len(f.iters)-1]
				f.pc = int(in.a)
				break
			}
			kv := StringValue(itr.keys[itr.idx])
			itr.idx++
			if in.op == opForInNextDecl {
				declareVar(f.scope, names[in.b], kv)
			} else {
				f.scope.Assign(names[in.b], kv)
			}
		case opReturn:
			f.sp--
			if exit, final := f.unwind(it, vmComp{kind: compReturn, val: f.stack[f.sp]}); exit {
				return final
			}
			continue
		case opThrow:
			f.sp--
			failErr = &ThrowError{Value: f.stack[f.sp]}
		case opBreakErr:
			failErr = errBreak
		case opContinueErr:
			failErr = errContinue
		case opUnwind:
			if exit, final := f.unwind(it, vmComp{kind: compJump, up: f.unit.Unwinds[in.a]}); exit {
				return final
			}
			continue
		case opTryPush:
			f.handlers = append(f.handlers, vmHandler{
				def:   f.unit.Handlers[in.a],
				sp:    f.sp,
				iters: len(f.iters),
				calls: len(f.calls),
				scope: f.scope,
			})
		case opTryPopNormal:
			h := &f.handlers[len(f.handlers)-1]
			if h.def.finallyPC >= 0 {
				h.phase = 2
				h.pending = vmComp{kind: compNormal}
				f.pc = int(h.def.finallyPC)
			} else {
				f.pc = int(h.def.afterPC)
				f.handlers = f.handlers[:len(f.handlers)-1]
			}
		case opCatchEnd:
			h := &f.handlers[len(f.handlers)-1]
			f.scope = h.scope
			if h.def.finallyPC >= 0 {
				h.phase = 2
				h.pending = vmComp{kind: compNormal}
				f.pc = int(h.def.finallyPC)
			} else {
				f.pc = int(h.def.afterPC)
				f.handlers = f.handlers[:len(f.handlers)-1]
			}
		case opFinallyEnd:
			h := f.handlers[len(f.handlers)-1]
			f.handlers = f.handlers[:len(f.handlers)-1]
			if h.pending.kind != compNormal {
				if exit, final := f.unwind(it, h.pending); exit {
					return final
				}
			}
			// Normal pending: fall through to the code after the try.
		case opSetComp:
			f.sp--
			f.completion = f.stack[f.sp]
		case opSetCompIfDef:
			f.sp--
			if f.program && f.stack[f.sp].Kind() != KindUndefined {
				f.completion = f.stack[f.sp]
			}
		default:
			failErr = errUnhandledOp
		}
		if failErr != nil {
			if exit, final := f.unwind(it, vmComp{kind: compErr, err: failErr}); exit {
				return final
			}
		}
	}
}

var errUnhandledOp = errors.New("js: unhandled opcode")

// setMember implements opSetMember/opSetMemberDyn after name resolution:
// stack is [... value object]; keep leaves the value for assignment
// expressions, update expressions discard it.
func (f *vmFrame) setMember(it *Interp, name string, keep bool) error {
	f.sp--
	objV := f.stack[f.sp]
	v := f.stack[f.sp-1]
	o := objV.Object()
	if o == nil {
		return it.throwTypeError("cannot set property %q of %s", name, objV.TypeOf())
	}
	o.Set(name, v)
	return f.stored(it, o, keep)
}

// stored finishes a member store into o: an array store is charged 16
// heap bytes, and the stored value stays on the stack when keep is set.
func (f *vmFrame) stored(it *Interp, o *Object, keep bool) error {
	if o.Class == ClassArray {
		if err := it.alloc(16); err != nil {
			return err
		}
	}
	if !keep {
		f.sp--
	}
	return nil
}

// construct implements new-expression semantics.
func (it *Interp) construct(ctor *Object, calleeV Value, args []Value) (Value, error) {
	switch ctor.Name {
	case "Array", "Object", "String", "Number", "Boolean", "Error", "Function", "RegExp", "Date":
		// Builtin constructors behave the same with and without new.
		return it.callFunction(ctor, Undefined(), args)
	}
	obj := NewObject()
	obj.Set("constructor", calleeV)
	ret, err := it.callFunction(ctor, ObjectValue(obj), args)
	if err != nil {
		return Undefined(), err
	}
	if ret.IsObject() {
		return ret, nil
	}
	return ObjectValue(obj), nil
}
