package js

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
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
func (v Value) ToNumber() float64 { return v.toNumberDepth(0) }

// toNumberDepth is ToNumber inside depth enclosing one-element arrays.
// Past maxDepth, where an engine would throw a RangeError, it gives NaN:
// ToNumber cannot throw, and the recursion must stay off a Go stack
// overflow.
func (v Value) toNumberDepth(depth int) float64 {
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
		if o := v.obj; o != nil && o.Class == ClassArray && o.arrayLen() == 1 {
			if o.joining {
				return 0 // a cycle joins as "", which is 0
			}
			if depth >= maxDepth {
				return math.NaN()
			}
			o.joining = true
			defer func() { o.joining = false }()
			return o.getIndex(0).toNumberDepth(depth + 1)
		}
		return math.NaN()
	}
}

// stringToNumber implements ES5 StringToNumber: after StrWhiteSpace is
// trimmed, the empty string is 0, an unsigned 0x literal is read in hex,
// and anything else must be a signed decimal literal or Infinity; every
// other string is NaN. Values beyond the double range round to ±Infinity.
func stringToNumber(s string) float64 {
	t := strings.TrimFunc(s, isStrWhiteSpace)
	if t == "" {
		return 0
	}
	if len(t) > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X') {
		for i := 2; i < len(t); i++ {
			if _, ok := hexDigit(t[i]); !ok {
				return math.NaN()
			}
		}
		// A hex float with a zero exponent reads the digits exactly and
		// rounds once; overflow gives +Inf.
		f, _ := strconv.ParseFloat(t+"p0", 64)
		return f
	}
	body := t
	if body[0] == '+' || body[0] == '-' {
		body = body[1:]
	}
	if body == "Infinity" {
		if t[0] == '-' {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	if !isDecimalLiteral(body) {
		return math.NaN()
	}
	// The grammar is checked; ParseFloat's range error comes with ±Inf.
	f, _ := strconv.ParseFloat(t, 64)
	return f
}

// isDecimalLiteral reports whether s is an ES StrUnsignedDecimalLiteral
// other than Infinity: digits with an optional fraction, or a fraction
// alone, then an optional signed exponent.
func isDecimalLiteral(s string) bool {
	i, digits := 0, 0
	for i < len(s) && isDigit(s[i]) {
		i++
		digits++
	}
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && isDigit(s[i]) {
			i++
			digits++
		}
	}
	if digits == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		exp := i
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		if i == exp {
			return false
		}
	}
	return i == len(s)
}

// isStrWhiteSpace reports an ES5 StrWhiteSpaceChar: WhiteSpace (TAB, VT,
// FF, SP, NBSP, BOM and the Zs separators) or a LineTerminator.
func isStrWhiteSpace(r rune) bool {
	switch r {
	case '\t', '\v', '\f', ' ', '\u00a0', '\ufeff', '\n', '\r', '\u2028', '\u2029':
		return true
	}
	return r > 0xff && unicode.Is(unicode.Zs, r)
}

// numberToString implements ES Number::toString: the shortest digits
// that round-trip, placed by the value's decimal exponent.
func numberToString(f float64) string {
	switch {
	case f == math.Trunc(f) && math.Abs(f) < 1<<53:
		return strconv.FormatInt(int64(f), 10) // -0 reads "0"
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	}
	// Shortest digits d1..dk and exponent n with |f| = 0.d1..dk × 10^n.
	e := strconv.FormatFloat(math.Abs(f), 'e', -1, 64)
	mant, exp, _ := strings.Cut(e, "e")
	digits := strings.Replace(mant, ".", "", 1)
	x, _ := strconv.Atoi(exp)
	k, n := len(digits), x+1
	var b strings.Builder
	if f < 0 {
		b.WriteByte('-')
	}
	switch {
	case k <= n && n <= 21:
		b.WriteString(digits)
		b.WriteString(strings.Repeat("0", n-k))
	case 0 < n && n <= 21:
		b.WriteString(digits[:n])
		b.WriteByte('.')
		b.WriteString(digits[n:])
	case -6 < n && n <= 0:
		b.WriteString("0.")
		b.WriteString(strings.Repeat("0", -n))
		b.WriteString(digits)
	default:
		b.WriteByte(digits[0])
		if k > 1 {
			b.WriteByte('.')
			b.WriteString(digits[1:])
		}
		b.WriteByte('e')
		if n-1 >= 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.Itoa(n - 1))
	}
	return b.String()
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

	// elems holds an array's index prefix: elems[i] is own property i for
	// every i < len(elems). props never holds an index below len(elems),
	// nor len(elems) itself: that entry is pulled up into elems when the
	// prefix reaches it. Only arrays use elems; every other object keeps
	// all its keys in props, in insertion order.
	elems []Value
	// sparse counts the index keys props holds (array entries past a hole).
	sparse int
	// joining marks an array whose conversion to a primitive is under way.
	// Meeting it again inside that conversion is a cycle, which converts
	// as "" (as in browser engines) instead of recursing until the Go
	// stack overflows and kills the process.
	joining bool

	// getters are consulted before props (host objects).
	getters map[string]PropGetter

	// Proto is the compiled function for script-defined functions; its
	// Lit is the parsed literal (name, parameters and source text).
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
	return &Object{Class: ClassArray, elems: append([]Value(nil), elems...), length: len(elems)}
}

// NewHostFunc wraps a native function.
func NewHostFunc(name string, fn HostFn) *Object {
	return &Object{Class: ClassFunction, Name: name, Host: fn, props: make(map[string]Value)}
}

// IsCallable reports whether the object can be invoked.
func (o *Object) IsCallable() bool { return o != nil && (o.Host != nil || o.Proto != nil) }

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

// maxIndex bounds array indices: arrayIndex accepts at most nine digits,
// so "1000000000" and above are named keys that do not move length.
const maxIndex = 1e9

// GetOwn returns an own property.
func (o *Object) GetOwn(name string) (Value, bool) {
	if len(o.elems) > 0 {
		if idx, ok := arrayIndex(name); ok && idx < len(o.elems) {
			return o.elems[idx], true
		}
	}
	v, ok := o.props[name]
	return v, ok
}

// Set defines or updates a property, preserving insertion order. On an
// array, an index key stores an element and "length" truncates or
// extends; neither is kept as a named property.
func (o *Object) Set(name string, v Value) {
	if o.Class == ClassArray {
		if idx, ok := arrayIndex(name); ok {
			o.setIndex(idx, v)
			return
		}
		if name == "length" {
			if n := int(v.ToNumber()); n >= 0 {
				o.truncate(n)
			}
			return
		}
	}
	o.setProp(name, v)
}

// setProp stores name in props, appending it to keys when it is new.
func (o *Object) setProp(name string, v Value) {
	if o.props == nil {
		o.props = make(map[string]Value)
	}
	if _, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
	}
	o.props[name] = v
}

// Delete removes a property. Deleting an element inside an array's
// prefix spills the elements after it into props as sparse entries.
func (o *Object) Delete(name string) {
	if len(o.elems) > 0 {
		if idx, ok := arrayIndex(name); ok && idx < len(o.elems) {
			for j := idx + 1; j < len(o.elems); j++ {
				o.setProp(strconv.Itoa(j), o.elems[j])
				o.sparse++
			}
			clear(o.elems[idx:])
			o.elems = o.elems[:idx]
			return
		}
	}
	if _, ok := o.props[name]; !ok {
		return
	}
	delete(o.props, name)
	if o.Class == ClassArray {
		if _, ok := arrayIndex(name); ok {
			o.sparse--
		}
	}
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
	if k := max(n, 0); k < len(o.elems) {
		clear(o.elems[k:])
		o.elems = o.elems[:k]
	}
	if o.sparse > 0 {
		o.filterKeys(func(k string) bool {
			if idx, ok := arrayIndex(k); ok && idx >= n && idx < o.length {
				delete(o.props, k)
				o.sparse--
				return false
			}
			return true
		})
	}
	o.length = n
}

// filterKeys keeps the keys for which keep reports true, in one pass:
// removing them one by one rescans and shifts keys per key, which is
// quadratic in their number.
func (o *Object) filterKeys(keep func(k string) bool) {
	kept := o.keys[:0]
	for _, k := range o.keys {
		if keep(k) {
			kept = append(kept, k)
		}
	}
	clear(o.keys[len(kept):])
	o.keys = kept
}

// Keys returns property names in for-in order: an array's indices in
// ascending order, then its named keys in insertion order; every other
// object's keys in insertion order.
func (o *Object) Keys() []string {
	if o.Class != ClassArray {
		return append([]string(nil), o.keys...)
	}
	out := make([]string, 0, len(o.elems)+len(o.keys))
	for i := range o.elems {
		out = append(out, strconv.Itoa(i))
	}
	out = append(out, o.keys...)
	if o.sparse > 0 {
		// Sparse indices ahead of named keys, ascending.
		rest := out[len(o.elems):]
		sort.SliceStable(rest, func(i, j int) bool {
			ai, aok := arrayIndex(rest[i])
			bi, bok := arrayIndex(rest[j])
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

// numberIndex reports whether key is a number whose string form is an
// array index (an integer in [0, maxIndex); -0 reads "0"), and returns
// that index without formatting the key.
func numberIndex(key Value) (int, bool) {
	if key.kind != KindNumber {
		return 0, false
	}
	f := key.num
	if f >= 0 && f < maxIndex && f == math.Trunc(f) {
		return int(f), true
	}
	return 0, false
}

func (o *Object) arrayLen() int { return o.length }

func (o *Object) getIndex(i int) Value {
	if uint(i) < uint(len(o.elems)) {
		return o.elems[i]
	}
	if o.Class == ClassArray && o.sparse == 0 && i >= 0 && i < maxIndex {
		return Undefined()
	}
	v, ok := o.props[strconv.Itoa(i)]
	if !ok {
		return Undefined()
	}
	return v
}

func (o *Object) setIndex(i int, v Value) {
	if o.Class != ClassArray || i < 0 || i >= maxIndex {
		o.setProp(strconv.Itoa(i), v)
		return
	}
	switch n := len(o.elems); {
	case i < n:
		o.elems[i] = v
	case i == n:
		o.elems = append(o.elems, v)
		if o.sparse > 0 {
			o.pullUp()
		}
	default:
		key := strconv.Itoa(i)
		if _, exists := o.props[key]; !exists {
			o.sparse++
		}
		o.setProp(key, v)
	}
	if i >= o.length {
		o.length = i + 1
	}
}

// pullUp moves the sparse entries that continue the prefix into elems.
func (o *Object) pullUp() {
	from := len(o.elems)
	for o.sparse > 0 {
		key := strconv.Itoa(len(o.elems))
		v, ok := o.props[key]
		if !ok {
			break
		}
		o.elems = append(o.elems, v)
		delete(o.props, key)
		o.sparse--
	}
	if len(o.elems) > from {
		o.filterKeys(func(k string) bool {
			idx, ok := arrayIndex(k)
			return !ok || idx >= len(o.elems)
		})
	}
}
