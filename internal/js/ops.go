package js

// The operators and property reads the VM dispatches to: binary operators,
// comparisons, instanceof, member reads and builtin method lookup.

import (
	"fmt"
	"math"
)

// binaryOp applies the binary operator op to l and r.
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
			if name == "length" && o.Proto != nil {
				return NumberValue(float64(len(o.Proto.Lit.Params))), nil
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
