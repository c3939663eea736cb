package js

import (
	"fmt"
	"math"
	"strings"
)

// eval evaluates an expression.
func (it *Interp) eval(e Expr, sc *Scope) (Value, error) {
	if err := it.step(); err != nil {
		return Undefined(), err
	}
	switch x := e.(type) {
	case *NumberLit:
		return NumberValue(x.Value), nil
	case *StringLit:
		return StringValue(x.Value), nil
	case *BoolLit:
		return BoolValue(x.Value), nil
	case *NullLit:
		return NullValue(), nil
	case *ThisLit:
		return it.This, nil
	case *Ident:
		if v, ok := sc.Lookup(x.Name); ok {
			return v, nil
		}
		return Undefined(), it.throwNamed("ReferenceError", x.Name+" is not defined")
	case *ArrayLit:
		arr := NewArray()
		for i, el := range x.Elems {
			if el == nil {
				arr.setIndex(i, Undefined())
				continue
			}
			v, err := it.eval(el, sc)
			if err != nil {
				return Undefined(), err
			}
			arr.setIndex(i, v)
			if err := it.alloc(16); err != nil {
				return Undefined(), err
			}
		}
		return ObjectValue(arr), nil
	case *ObjectLit:
		o := NewObject()
		for i, k := range x.Keys {
			v, err := it.eval(x.Values[i], sc)
			if err != nil {
				return Undefined(), err
			}
			o.Set(k, v)
			if err := it.alloc(32); err != nil {
				return Undefined(), err
			}
		}
		return ObjectValue(o), nil
	case *FuncLit:
		fn := &Object{Class: ClassFunction, Name: x.Name, Fn: x, Env: sc, props: make(map[string]Value)}
		return ObjectValue(fn), nil
	case *UnaryExpr:
		return it.evalUnary(x, sc)
	case *UpdateExpr:
		return it.evalUpdate(x, sc)
	case *BinaryExpr:
		l, err := it.eval(x.L, sc)
		if err != nil {
			return Undefined(), err
		}
		r, err := it.eval(x.R, sc)
		if err != nil {
			return Undefined(), err
		}
		return it.binaryOp(x.Op, l, r)
	case *LogicalExpr:
		l, err := it.eval(x.L, sc)
		if err != nil {
			return Undefined(), err
		}
		if x.Op == "&&" {
			if !l.ToBoolean() {
				return l, nil
			}
		} else if l.ToBoolean() {
			return l, nil
		}
		return it.eval(x.R, sc)
	case *CondExpr:
		c, err := it.eval(x.Cond, sc)
		if err != nil {
			return Undefined(), err
		}
		if c.ToBoolean() {
			return it.eval(x.Then, sc)
		}
		return it.eval(x.Else, sc)
	case *AssignExpr:
		return it.evalAssign(x, sc)
	case *SeqExpr:
		var last Value
		for _, sub := range x.Exprs {
			v, err := it.eval(sub, sc)
			if err != nil {
				return Undefined(), err
			}
			last = v
		}
		return last, nil
	case *CallExpr:
		return it.evalCall(x, sc)
	case *NewExpr:
		return it.evalNew(x, sc)
	case *MemberExpr:
		objV, err := it.eval(x.Object, sc)
		if err != nil {
			return Undefined(), err
		}
		name, err := it.memberName(x, sc)
		if err != nil {
			return Undefined(), err
		}
		return it.getMember(objV, name)
	default:
		return Undefined(), fmt.Errorf("js: unhandled expression %T", e)
	}
}

func (it *Interp) memberName(x *MemberExpr, sc *Scope) (string, error) {
	if !x.Computed {
		return x.Property.(*StringLit).Value, nil
	}
	pv, err := it.eval(x.Property, sc)
	if err != nil {
		return "", err
	}
	return valueToString(it, pv)
}

func (it *Interp) evalUnary(x *UnaryExpr, sc *Scope) (Value, error) {
	switch x.Op {
	case "typeof":
		// typeof of an undeclared identifier is "undefined", not a throw.
		if id, ok := x.X.(*Ident); ok {
			v, found := sc.Lookup(id.Name)
			if !found {
				return StringValue("undefined"), nil
			}
			return StringValue(v.TypeOf()), nil
		}
		v, err := it.eval(x.X, sc)
		if err != nil {
			return Undefined(), err
		}
		return StringValue(v.TypeOf()), nil
	case "delete":
		m, ok := x.X.(*MemberExpr)
		if !ok {
			return BoolValue(true), nil
		}
		objV, err := it.eval(m.Object, sc)
		if err != nil {
			return Undefined(), err
		}
		name, err := it.memberName(m, sc)
		if err != nil {
			return Undefined(), err
		}
		if o := objV.Object(); o != nil {
			o.Delete(name)
		}
		return BoolValue(true), nil
	case "void":
		if _, err := it.eval(x.X, sc); err != nil {
			return Undefined(), err
		}
		return Undefined(), nil
	}
	v, err := it.eval(x.X, sc)
	if err != nil {
		return Undefined(), err
	}
	switch x.Op {
	case "!":
		return BoolValue(!v.ToBoolean()), nil
	case "-":
		return NumberValue(-v.ToNumber()), nil
	case "+":
		return NumberValue(v.ToNumber()), nil
	case "~":
		return NumberValue(float64(^toInt32(v.ToNumber()))), nil
	default:
		return Undefined(), fmt.Errorf("js: unhandled unary %q", x.Op)
	}
}

func (it *Interp) evalUpdate(x *UpdateExpr, sc *Scope) (Value, error) {
	old, err := it.eval(x.X, sc)
	if err != nil {
		return Undefined(), err
	}
	n := old.ToNumber()
	var next float64
	if x.Op == "++" {
		next = n + 1
	} else {
		next = n - 1
	}
	if err := it.storeTo(x.X, NumberValue(next), sc); err != nil {
		return Undefined(), err
	}
	if x.Prefix {
		return NumberValue(next), nil
	}
	return NumberValue(n), nil
}

func (it *Interp) evalAssign(x *AssignExpr, sc *Scope) (Value, error) {
	var newVal Value
	if x.Op == "=" {
		v, err := it.eval(x.Value, sc)
		if err != nil {
			return Undefined(), err
		}
		newVal = v
	} else {
		cur, err := it.eval(x.Target, sc)
		if err != nil {
			return Undefined(), err
		}
		rhs, err := it.eval(x.Value, sc)
		if err != nil {
			return Undefined(), err
		}
		op := strings.TrimSuffix(x.Op, "=")
		newVal, err = it.binaryOp(op, cur, rhs)
		if err != nil {
			return Undefined(), err
		}
	}
	if err := it.storeTo(x.Target, newVal, sc); err != nil {
		return Undefined(), err
	}
	return newVal, nil
}

func (it *Interp) storeTo(target Expr, v Value, sc *Scope) error {
	switch t := target.(type) {
	case *Ident:
		sc.Assign(t.Name, v)
		return nil
	case *MemberExpr:
		objV, err := it.eval(t.Object, sc)
		if err != nil {
			return err
		}
		name, err := it.memberName(t, sc)
		if err != nil {
			return err
		}
		o := objV.Object()
		if o == nil {
			return it.throwTypeError("cannot set property %q of %s", name, objV.TypeOf())
		}
		o.Set(name, v)
		if o.Class == ClassArray {
			if err := it.alloc(16); err != nil {
				return err
			}
		}
		return nil
	default:
		return it.throwTypeError("invalid assignment target")
	}
}

func (it *Interp) binaryOp(op string, l, r Value) (Value, error) {
	switch op {
	case "+":
		if l.IsString() && r.IsString() {
			return it.concat(l, r)
		}
		if l.IsString() || r.IsString() ||
			(l.IsObject() && !r.IsObject()) || (r.IsObject() && !l.IsObject()) ||
			(l.IsObject() && r.IsObject()) {
			ls, err := toStringValue(it, l)
			if err != nil {
				return Undefined(), err
			}
			rs, err := toStringValue(it, r)
			if err != nil {
				return Undefined(), err
			}
			// Objects that are not arrays/strings still concatenate via
			// their string form, matching ES ToPrimitive-with-string hint
			// closely enough for document scripts.
			return it.concat(ls, rs)
		}
		return NumberValue(l.ToNumber() + r.ToNumber()), nil
	case "-":
		return NumberValue(l.ToNumber() - r.ToNumber()), nil
	case "*":
		return NumberValue(l.ToNumber() * r.ToNumber()), nil
	case "/":
		return NumberValue(l.ToNumber() / r.ToNumber()), nil
	case "%":
		return NumberValue(math.Mod(l.ToNumber(), r.ToNumber())), nil
	case "==":
		if err := it.chargeCompare(l, r); err != nil {
			return Undefined(), err
		}
		eq, err := looseEquals(it, l, r)
		return BoolValue(eq), err
	case "!=":
		if err := it.chargeCompare(l, r); err != nil {
			return Undefined(), err
		}
		eq, err := looseEquals(it, l, r)
		return BoolValue(!eq), err
	case "===":
		if err := it.chargeCompare(l, r); err != nil {
			return Undefined(), err
		}
		return BoolValue(strictEquals(l, r)), nil
	case "!==":
		if err := it.chargeCompare(l, r); err != nil {
			return Undefined(), err
		}
		return BoolValue(!strictEquals(l, r)), nil
	case "<", ">", "<=", ">=":
		return it.compareOp(op, l, r)
	case "&":
		return NumberValue(float64(toInt32(l.ToNumber()) & toInt32(r.ToNumber()))), nil
	case "|":
		return NumberValue(float64(toInt32(l.ToNumber()) | toInt32(r.ToNumber()))), nil
	case "^":
		return NumberValue(float64(toInt32(l.ToNumber()) ^ toInt32(r.ToNumber()))), nil
	case "<<":
		return NumberValue(float64(toInt32(l.ToNumber()) << (toUint32(r.ToNumber()) & 31))), nil
	case ">>":
		return NumberValue(float64(toInt32(l.ToNumber()) >> (toUint32(r.ToNumber()) & 31))), nil
	case ">>>":
		return NumberValue(float64(toUint32(l.ToNumber()) >> (toUint32(r.ToNumber()) & 31))), nil
	case "instanceof":
		return it.instanceOf(l, r)
	case "in":
		o := r.Object()
		if o == nil {
			return Undefined(), it.throwTypeError("'in' requires an object")
		}
		name, err := valueToString(it, l)
		if err != nil {
			return Undefined(), err
		}
		_, has := o.GetOwn(name)
		if !has {
			_, has = o.Getter(name)
		}
		return BoolValue(has), nil
	default:
		return Undefined(), fmt.Errorf("js: unhandled binary %q", op)
	}
}

// chargeCompare bills the step budget for string equality scans, which are
// O(min len) without allocating and therefore invisible to the heap cap.
func (it *Interp) chargeCompare(l, r Value) error {
	if !l.IsString() || !r.IsString() {
		return nil
	}
	return it.work(min(l.byteLen(), r.byteLen()))
}

func (it *Interp) compareOp(op string, l, r Value) (Value, error) {
	if l.IsString() && r.IsString() {
		if err := it.chargeCompare(l, r); err != nil {
			return Undefined(), err
		}
		ls, rs := l.Str(), r.Str()
		var res bool
		switch op {
		case "<":
			res = ls < rs
		case ">":
			res = ls > rs
		case "<=":
			res = ls <= rs
		default:
			res = ls >= rs
		}
		return BoolValue(res), nil
	}
	ln, rn := l.ToNumber(), r.ToNumber()
	if math.IsNaN(ln) || math.IsNaN(rn) {
		return BoolValue(false), nil
	}
	var res bool
	switch op {
	case "<":
		res = ln < rn
	case ">":
		res = ln > rn
	case "<=":
		res = ln <= rn
	default:
		res = ln >= rn
	}
	return BoolValue(res), nil
}

func (it *Interp) instanceOf(l, r Value) (Value, error) {
	ctor := r.Object()
	if ctor == nil || !ctor.IsCallable() {
		return Undefined(), it.throwTypeError("right side of instanceof is not callable")
	}
	o := l.Object()
	if o == nil {
		return BoolValue(false), nil
	}
	switch ctor.Name {
	case "Array":
		return BoolValue(o.Class == ClassArray), nil
	case "Function":
		return BoolValue(o.IsCallable()), nil
	case "Object":
		return BoolValue(true), nil
	case "Error":
		return BoolValue(o.Class == ClassError), nil
	}
	if c, ok := o.GetOwn("constructor"); ok {
		return BoolValue(c.Object() == ctor), nil
	}
	return BoolValue(false), nil
}

// evalCall evaluates a call expression, binding this for method calls.
func (it *Interp) evalCall(x *CallExpr, sc *Scope) (Value, error) {
	var this Value
	var fnVal Value

	if m, ok := x.Callee.(*MemberExpr); ok {
		objV, err := it.eval(m.Object, sc)
		if err != nil {
			return Undefined(), err
		}
		name, err := it.memberName(m, sc)
		if err != nil {
			return Undefined(), err
		}
		// Fast path: builtin string/array/function methods dispatch without
		// materializing a bound function object.
		if hf, ok := it.lookupMethod(objV, name); ok {
			args, err := it.evalArgs(x.Args, sc)
			if err != nil {
				return Undefined(), err
			}
			return hf(it, objV, args)
		}
		fnVal, err = it.getMember(objV, name)
		if err != nil {
			return Undefined(), err
		}
		this = objV
	} else {
		v, err := it.eval(x.Callee, sc)
		if err != nil {
			return Undefined(), err
		}
		fnVal = v
		this = it.This
	}

	fn := fnVal.Object()
	if fn == nil || !fn.IsCallable() {
		desc := "value"
		if id, ok := x.Callee.(*Ident); ok {
			desc = id.Name
		} else if m, ok := x.Callee.(*MemberExpr); ok && !m.Computed {
			desc = m.Property.(*StringLit).Value
		}
		return Undefined(), it.throwTypeError("%s is not a function", desc)
	}
	args, err := it.evalArgs(x.Args, sc)
	if err != nil {
		return Undefined(), err
	}
	return it.callFunction(fn, this, args)
}

func (it *Interp) evalArgs(exprs []Expr, sc *Scope) ([]Value, error) {
	args := make([]Value, len(exprs))
	for i, a := range exprs {
		v, err := it.eval(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

func (it *Interp) evalNew(x *NewExpr, sc *Scope) (Value, error) {
	calleeV, err := it.eval(x.Callee, sc)
	if err != nil {
		return Undefined(), err
	}
	ctor := calleeV.Object()
	if ctor == nil || !ctor.IsCallable() {
		return Undefined(), it.throwTypeError("constructor is not callable")
	}
	args, err := it.evalArgs(x.Args, sc)
	if err != nil {
		return Undefined(), err
	}
	// Builtin constructors behave the same with and without new.
	switch ctor.Name {
	case "Array", "Object", "String", "Number", "Boolean", "Error", "Function", "RegExp", "Date":
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

// getMember implements property reads on any value kind.
func (it *Interp) getMember(v Value, name string) (Value, error) {
	switch v.Kind() {
	case KindString:
		if name == "length" {
			return NumberValue(float64(v.strLen)), nil
		}
		if idx, ok := arrayIndex(name); ok {
			return it.stringCharAt(v, idx)
		}
		if hf, ok := stringMethods[name]; ok {
			return ObjectValue(NewHostFunc(name, hf)), nil
		}
		return Undefined(), nil
	case KindNumber, KindBool:
		if hf, ok := primitiveMethods[name]; ok {
			return ObjectValue(NewHostFunc(name, hf)), nil
		}
		return Undefined(), nil
	case KindObject:
		o := v.obj
		if g, ok := o.Getter(name); ok {
			return g(it)
		}
		if val, ok := o.GetOwn(name); ok {
			return val, nil
		}
		if o.Class == ClassArray && name == "length" {
			return NumberValue(float64(o.arrayLen())), nil
		}
		if o.Class == ClassArray {
			if hf, ok := arrayMethods[name]; ok {
				return ObjectValue(NewHostFunc(name, hf)), nil
			}
		}
		if o.IsCallable() {
			if hf, ok := functionMethods[name]; ok {
				return ObjectValue(NewHostFunc(name, hf)), nil
			}
			if name == "length" && o.Fn != nil {
				return NumberValue(float64(len(o.Fn.Params))), nil
			}
		}
		if hf, ok := objectMethods[name]; ok {
			return ObjectValue(NewHostFunc(name, hf)), nil
		}
		return Undefined(), nil
	case KindUndefined, KindNull:
		return Undefined(), it.throwTypeError("cannot read property %q of %s", name, v.TypeOf())
	default:
		return Undefined(), nil
	}
}

// lookupMethod finds a builtin method for the method-call fast path.
func (it *Interp) lookupMethod(v Value, name string) (HostFn, bool) {
	switch v.Kind() {
	case KindString:
		hf, ok := stringMethods[name]
		return hf, ok
	case KindNumber, KindBool:
		hf, ok := primitiveMethods[name]
		return hf, ok
	case KindObject:
		o := v.obj
		// Own properties and getters shadow builtins.
		if _, ok := o.GetOwn(name); ok {
			return nil, false
		}
		if _, ok := o.Getter(name); ok {
			return nil, false
		}
		if o.Class == ClassArray {
			if hf, ok := arrayMethods[name]; ok {
				return hf, true
			}
		}
		if o.IsCallable() {
			if hf, ok := functionMethods[name]; ok {
				return hf, true
			}
		}
		if hf, ok := objectMethods[name]; ok {
			return hf, true
		}
	}
	return nil, false
}
