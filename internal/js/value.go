package js

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ValueKind enumerates Javascript value kinds.
type ValueKind int

// Value kinds.
const (
	KindUndefined ValueKind = iota + 1
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// Value is a Javascript value. The zero Value is undefined.
type Value struct {
	kind ValueKind
	// num is the number payload, or 1/0 for a bool.
	num float64
	// str is a flat string payload; Str() is the one reader, because a
	// string may instead be an unflattened rope.
	str string
	// strLen caches the UTF-16 length of the string (code units); JS
	// semantics count UTF-16 units, and heap accounting charges two bytes
	// per unit.
	strLen int
	obj    *Object
	// rope, when set, holds the string as an unflattened concatenation
	// (see rope.go); str is then empty.
	rope *rope
}

// Undefined is the undefined value.
func Undefined() Value { return Value{kind: KindUndefined} }

// NullValue is the null value.
func NullValue() Value { return Value{kind: KindNull} }

// BoolValue wraps a Go bool.
func BoolValue(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// NumberValue wraps a Go float64.
func NumberValue(f float64) Value { return Value{kind: KindNumber, num: f} }

// StringValue wraps a Go string (no allocation accounting; see
// Interp.newString for accounted strings).
func StringValue(s string) Value {
	return Value{kind: KindString, str: s, strLen: utf16Len(s)}
}

// ObjectValue wraps an object.
func ObjectValue(o *Object) Value {
	if o == nil {
		return NullValue()
	}
	return Value{kind: KindObject, obj: o}
}

// utf16Len counts UTF-16 code units of s. Supplementary-plane runes count
// twice (surrogate pair).
func utf16Len(s string) int {
	// Fast path: pure ASCII.
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		return len(s)
	}
	n := 0
	for _, r := range s {
		if r > 0xffff {
			n += 2
		} else {
			n++
		}
	}
	return n
}

// Kind returns the value kind.
func (v Value) Kind() ValueKind {
	if v.kind == 0 {
		return KindUndefined
	}
	return v.kind
}

// IsUndefined reports kind == undefined.
func (v Value) IsUndefined() bool { return v.Kind() == KindUndefined }

// IsNull reports kind == null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsString reports kind == string.
func (v Value) IsString() bool { return v.kind == KindString }

// IsNumber reports kind == number.
func (v Value) IsNumber() bool { return v.kind == KindNumber }

// IsObject reports kind == object.
func (v Value) IsObject() bool { return v.kind == KindObject }

// Object returns the underlying object or nil.
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.obj
	}
	return nil
}

// Str returns the raw string payload (only meaningful for strings). A rope
// is flattened on the first call and memoized.
func (v Value) Str() string {
	if v.rope != nil {
		return v.rope.flatten()
	}
	return v.str
}

// byteLen returns the byte length of a string value without flattening.
func (v Value) byteLen() int {
	if v.rope != nil {
		return v.rope.n
	}
	return len(v.str)
}

// Contains reports whether a string value contains sub. A rope answers
// without flattening: each node memoizes its answer, and a match that
// straddles a boundary between two pieces is found too.
func (v Value) Contains(sub string) bool {
	if v.rope == nil || sub == "" {
		return strings.Contains(v.str, sub)
	}
	return v.rope.contains(sub)
}

// StrLen returns the UTF-16 length of a string value.
func (v Value) StrLen() int { return v.strLen }

// Num returns the raw number payload.
func (v Value) Num() float64 { return v.num }

// Bool returns the raw bool payload.
func (v Value) Bool() bool { return v.num != 0 }

// ToBoolean implements the ES abstract operation.
func (v Value) ToBoolean() bool {
	switch v.Kind() {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.num != 0
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.byteLen() > 0
	default:
		return true
	}
}

// ToNumber implements the ES abstract operation (sans exotic cases).
func (v Value) ToNumber() float64 {
	switch v.Kind() {
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindBool, KindNumber:
		return v.num
	case KindString:
		return stringToNumber(v.Str())
	default:
		// Object -> primitive via valueOf-ish: arrays join, others NaN.
		if v.obj != nil && v.obj.Class == ClassArray && v.obj.arrayLen() == 1 {
			return v.obj.getIndex(0).ToNumber()
		}
		return math.NaN()
	}
}

func stringToNumber(s string) float64 {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0
	}
	neg := false
	if strings.HasPrefix(t, "-") {
		neg = true
		t = t[1:]
	} else if strings.HasPrefix(t, "+") {
		t = t[1:]
	}
	var f float64
	if strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X") {
		n, err := strconv.ParseUint(t[2:], 16, 64)
		if err != nil {
			return math.NaN()
		}
		f = float64(n)
	} else {
		var err error
		f, err = strconv.ParseFloat(t, 64)
		if err != nil {
			return math.NaN()
		}
	}
	if neg {
		f = -f
	}
	return f
}

// numberToString renders a float per (approximated) ES ToString(Number).
func numberToString(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.Kind() {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.obj != nil && v.obj.IsCallable() {
			return "function"
		}
		return "object"
	}
}

// Object classes.
const (
	ClassObject   = "Object"
	ClassArray    = "Array"
	ClassFunction = "Function"
	ClassError    = "Error"
	ClassHost     = "Host"
)

// HostFn is a native function exposed to scripts. this is the receiver
// value (undefined for plain calls).
type HostFn func(it *Interp, this Value, args []Value) (Value, error)

// PropGetter computes a property dynamically (e.g. doc.info.title).
type PropGetter func(it *Interp) (Value, error)

// Object is a Javascript object. Property insertion order is preserved for
// deterministic for-in iteration.
type Object struct {
	Class string
	// Name is a diagnostic label for host objects and functions.
	Name string

	props map[string]Value
	keys  []string

	// getters are consulted before props (host objects).
	getters map[string]PropGetter

	// Fn is set for user-defined functions.
	Fn *FuncLit
	// Proto is the compiled body when the function was created by the
	// bytecode VM; callFunction dispatches to the VM when set, so a
	// closure always runs on the engine that created it.
	Proto *FnProto
	// Env is the closure environment for user functions.
	Env *Scope
	// Host is set for native functions.
	Host HostFn

	// length for arrays (tracked explicitly so sparse writes work).
	length int
}

// NewObject returns a plain object.
func NewObject() *Object {
	return &Object{Class: ClassObject, props: make(map[string]Value)}
}

// NewHostObject returns a named host object.
func NewHostObject(name string) *Object {
	return &Object{Class: ClassHost, Name: name, props: make(map[string]Value)}
}

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	o := &Object{Class: ClassArray, props: make(map[string]Value, len(elems))}
	for i, el := range elems {
		o.setIndex(i, el)
	}
	return o
}

// NewHostFunc wraps a native function.
func NewHostFunc(name string, fn HostFn) *Object {
	return &Object{Class: ClassFunction, Name: name, Host: fn, props: make(map[string]Value)}
}

// IsCallable reports whether the object can be invoked.
func (o *Object) IsCallable() bool { return o != nil && (o.Host != nil || o.Fn != nil) }

// DefineGetter registers a dynamic property on a host object.
func (o *Object) DefineGetter(name string, g PropGetter) {
	if o.getters == nil {
		o.getters = make(map[string]PropGetter)
	}
	o.getters[name] = g
}

// Getter returns the registered getter for name.
func (o *Object) Getter(name string) (PropGetter, bool) {
	g, ok := o.getters[name]
	return g, ok
}

// GetOwn returns an own property.
func (o *Object) GetOwn(name string) (Value, bool) {
	v, ok := o.props[name]
	return v, ok
}

// Set defines or updates a property, preserving insertion order.
func (o *Object) Set(name string, v Value) {
	if o.props == nil {
		o.props = make(map[string]Value)
	}
	if _, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
	}
	o.props[name] = v
	if o.Class == ClassArray {
		if idx, ok := arrayIndex(name); ok && idx >= o.length {
			o.length = idx + 1
		}
		if name == "length" {
			// Explicit length assignment truncates (approximation: only
			// adjusts the counter).
			n := int(v.ToNumber())
			if n >= 0 {
				o.truncate(n)
			}
		}
	}
}

// Delete removes a property.
func (o *Object) Delete(name string) {
	if _, ok := o.props[name]; !ok {
		return
	}
	delete(o.props, name)
	for i, k := range o.keys {
		if k == name {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
}

func (o *Object) truncate(n int) {
	if n >= o.length {
		o.length = n
		return
	}
	// One pass over keys: deleting index by index rescans and shifts keys
	// per element, which is quadratic in the array length.
	kept := o.keys[:0]
	for _, k := range o.keys {
		if idx, ok := arrayIndex(k); ok && idx >= n && idx < o.length {
			delete(o.props, k)
			continue
		}
		kept = append(kept, k)
	}
	o.keys = kept
	o.length = n
}

// Keys returns property names in insertion order (excluding length).
func (o *Object) Keys() []string {
	out := make([]string, 0, len(o.keys))
	for _, k := range o.keys {
		if o.Class == ClassArray && k == "length" {
			continue
		}
		out = append(out, k)
	}
	if o.Class == ClassArray {
		// Numeric keys first in ascending order, like real engines.
		sort.SliceStable(out, func(i, j int) bool {
			ai, aok := arrayIndex(out[i])
			bi, bok := arrayIndex(out[j])
			switch {
			case aok && bok:
				return ai < bi
			case aok:
				return true
			default:
				return false
			}
		})
	}
	return out
}

func arrayIndex(name string) (int, bool) {
	if name == "" || len(name) > 9 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if len(name) > 1 && name[0] == '0' {
		return 0, false
	}
	return n, true
}

func (o *Object) arrayLen() int { return o.length }

func (o *Object) getIndex(i int) Value {
	v, ok := o.props[strconv.Itoa(i)]
	if !ok {
		return Undefined()
	}
	return v
}

func (o *Object) setIndex(i int, v Value) {
	o.Set(strconv.Itoa(i), v)
}
