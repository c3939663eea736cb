package js

import (
	"math"
	"sort"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined()
}

// ---- UTF-16 helpers ----

func isASCII(v Value) bool { return v.byteLen() == v.strLen }

// stringUnits returns s as UTF-16 code units (non-ASCII slow path).
func stringUnits(s string) []uint16 { return utf16.Encode([]rune(s)) }

func unitsToString(u []uint16) string { return string(utf16.Decode(u)) }

func (it *Interp) stringCharAt(v Value, idx int) (Value, error) {
	if idx < 0 || idx >= v.strLen {
		return StringValue(""), nil
	}
	if isASCII(v) {
		return it.newString(v.Str()[idx : idx+1])
	}
	// Re-encoding the whole string is O(len); bill it, or per-character
	// loops over non-ASCII strings turn quadratic for free.
	if err := it.work(v.byteLen()); err != nil {
		return Undefined(), err
	}
	u := it.units16(v.Str())
	return it.newString(unitsToString(u[idx : idx+1]))
}

func (it *Interp) stringCharCodeAt(v Value, idx int) float64 {
	if idx < 0 || idx >= v.strLen {
		return math.NaN()
	}
	if isASCII(v) {
		return float64(v.Str()[idx])
	}
	u := it.units16(v.Str())
	return float64(u[idx])
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func (it *Interp) stringSlice(v Value, start, end int) (Value, error) {
	start = clampIndex(start, v.strLen)
	end = clampIndex(end, v.strLen)
	if start > end {
		start, end = end, start
	}
	if isASCII(v) {
		return it.newString(v.Str()[start:end])
	}
	if err := it.work(v.byteLen()); err != nil {
		return Undefined(), err
	}
	u := it.units16(v.Str())
	return it.newString(unitsToString(u[start:end]))
}

func toIntArg(v Value, def int) int {
	if v.IsUndefined() {
		return def
	}
	f := v.ToNumber()
	if math.IsNaN(f) {
		return 0
	}
	if math.IsInf(f, 1) {
		return math.MaxInt32
	}
	if math.IsInf(f, -1) {
		return math.MinInt32
	}
	return int(math.Trunc(f))
}

func thisString(it *Interp, this Value) (string, error) {
	return valueToString(it, this)
}

// thisStringValue returns this as a string Value. When this already is one
// the value is returned as-is, keeping its cached UTF-16 length — the hot
// per-character methods (charAt/charCodeAt/substr) would otherwise rescan
// the whole string on every call.
func thisStringValue(it *Interp, this Value) (Value, error) {
	if this.IsString() {
		return this, nil
	}
	s, err := valueToString(it, this)
	if err != nil {
		return Undefined(), err
	}
	return StringValue(s), nil
}

// ---- String methods ----

var stringMethods map[string]HostFn

var primitiveMethods map[string]HostFn

var arrayMethods map[string]HostFn

var objectMethods map[string]HostFn

var functionMethods map[string]HostFn

// must be populated after all HostFns are defined.
//
//nolint:gochecknoinits // builtin tables are cyclic with the interpreter and
func init() {
	stringMethods = map[string]HostFn{
		"charAt": func(it *Interp, this Value, args []Value) (Value, error) {
			sv, err := thisStringValue(it, this)
			if err != nil {
				return Undefined(), err
			}
			return it.stringCharAt(sv, toIntArg(arg(args, 0), 0))
		},
		"charCodeAt": func(it *Interp, this Value, args []Value) (Value, error) {
			sv, err := thisStringValue(it, this)
			if err != nil {
				return Undefined(), err
			}
			if !isASCII(sv) {
				// Billing the UTF-16 re-encode keeps shellcode-style
				// charCodeAt loops within the step budget's time bound.
				if err := it.work(sv.byteLen()); err != nil {
					return Undefined(), err
				}
			}
			return NumberValue(it.stringCharCodeAt(sv, toIntArg(arg(args, 0), 0))), nil
		},
		"indexOf": func(it *Interp, this Value, args []Value) (Value, error) {
			sv, err := thisStringValue(it, this)
			if err != nil {
				return Undefined(), err
			}
			needle, err := valueToString(it, arg(args, 0))
			if err != nil {
				return Undefined(), err
			}
			s := sv.Str()
			if err := it.work(len(s) + len(needle)); err != nil {
				return Undefined(), err
			}
			if isASCII(sv) && utf16Len(needle) == len(needle) {
				from := clampIndex(toIntArg(arg(args, 1), 0), len(s))
				idx := strings.Index(s[from:], needle)
				if idx < 0 {
					return NumberValue(-1), nil
				}
				return NumberValue(float64(from + idx)), nil
			}
			u := it.units16(s)
			n := stringUnits(needle)
			from := clampIndex(toIntArg(arg(args, 1), 0), len(u))
			for i := from; i+len(n) <= len(u); i++ {
				match := true
				for j := range n {
					if u[i+j] != n[j] {
						match = false
						break
					}
				}
				if match {
					return NumberValue(float64(i)), nil
				}
			}
			return NumberValue(-1), nil
		},
		"lastIndexOf": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			needle, err := valueToString(it, arg(args, 0))
			if err != nil {
				return Undefined(), err
			}
			if err := it.work(len(s) + len(needle)); err != nil {
				return Undefined(), err
			}
			// ASCII-sufficient implementation (code-unit exact for ASCII).
			idx := strings.LastIndex(s, needle)
			if idx < 0 {
				return NumberValue(-1), nil
			}
			return NumberValue(float64(utf16Len(s[:idx]))), nil
		},
		"substring": func(it *Interp, this Value, args []Value) (Value, error) {
			sv, err := thisStringValue(it, this)
			if err != nil {
				return Undefined(), err
			}
			start := toIntArg(arg(args, 0), 0)
			end := toIntArg(arg(args, 1), sv.strLen)
			return it.stringSlice(sv, start, end)
		},
		"substr": func(it *Interp, this Value, args []Value) (Value, error) {
			sv, err := thisStringValue(it, this)
			if err != nil {
				return Undefined(), err
			}
			start := toIntArg(arg(args, 0), 0)
			if start < 0 {
				start = sv.strLen + start
				if start < 0 {
					start = 0
				}
			}
			length := toIntArg(arg(args, 1), sv.strLen-start)
			if length < 0 {
				length = 0
			}
			return it.stringSlice(sv, start, start+length)
		},
		"slice": func(it *Interp, this Value, args []Value) (Value, error) {
			sv, err := thisStringValue(it, this)
			if err != nil {
				return Undefined(), err
			}
			start := toIntArg(arg(args, 0), 0)
			end := toIntArg(arg(args, 1), sv.strLen)
			if start < 0 {
				start += sv.strLen
			}
			if end < 0 {
				end += sv.strLen
			}
			if start > end {
				return it.newString("")
			}
			return it.stringSlice(sv, start, end)
		},
		"split": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			sepV := arg(args, 0)
			if sepV.IsUndefined() {
				return ObjectValue(NewArray(StringValue(s))), nil
			}
			sep, err := valueToString(it, sepV)
			if err != nil {
				return Undefined(), err
			}
			if err := it.work(len(s)); err != nil {
				return Undefined(), err
			}
			var parts []string
			if sep == "" {
				for _, r := range s {
					parts = append(parts, string(r))
				}
			} else {
				parts = strings.Split(s, sep)
			}
			arr := NewArray()
			for i, p := range parts {
				pv, err := it.newString(p)
				if err != nil {
					return Undefined(), err
				}
				arr.setIndex(i, pv)
			}
			return ObjectValue(arr), nil
		},
		"replace": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			pat, err := valueToString(it, arg(args, 0))
			if err != nil {
				return Undefined(), err
			}
			rep, err := valueToString(it, arg(args, 1))
			if err != nil {
				return Undefined(), err
			}
			if err := it.work(len(s) + len(pat)); err != nil {
				return Undefined(), err
			}
			// String-pattern semantics: first occurrence only.
			return it.newString(strings.Replace(s, pat, rep, 1))
		},
		"concat": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			var b strings.Builder
			b.WriteString(s)
			for _, a := range args {
				as, err := valueToString(it, a)
				if err != nil {
					return Undefined(), err
				}
				b.WriteString(as)
			}
			return it.newString(b.String())
		},
		"toUpperCase": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return it.newString(strings.ToUpper(s))
		},
		"toLowerCase": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return it.newString(strings.ToLower(s))
		},
		"toString": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := thisString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return StringValue(s), nil
		},
		"valueOf": func(it *Interp, this Value, args []Value) (Value, error) {
			return this, nil
		},
	}

	primitiveMethods = map[string]HostFn{
		"toString": func(it *Interp, this Value, args []Value) (Value, error) {
			if this.IsNumber() && !arg(args, 0).IsUndefined() {
				radix := toIntArg(arg(args, 0), 10)
				if radix >= 2 && radix <= 36 {
					return it.newString(formatRadix(this.Num(), radix))
				}
			}
			s, err := valueToString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return StringValue(s), nil
		},
		"valueOf": func(it *Interp, this Value, args []Value) (Value, error) {
			return this, nil
		},
		"toFixed": func(it *Interp, this Value, args []Value) (Value, error) {
			digits := toIntArg(arg(args, 0), 0)
			if digits < 0 || digits > 20 {
				digits = 0
			}
			f := this.ToNumber()
			pow := math.Pow(10, float64(digits))
			rounded := math.Floor(f*pow+0.5) / pow
			s := numberToString(rounded)
			if digits > 0 {
				dot := strings.IndexByte(s, '.')
				if dot < 0 {
					s += "." + strings.Repeat("0", digits)
				} else if have := len(s) - dot - 1; have < digits {
					s += strings.Repeat("0", digits-have)
				}
			}
			return it.newString(s)
		},
	}

	arrayMethods = map[string]HostFn{
		"push": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined(), it.throwTypeError("push on non-array")
			}
			for _, a := range args {
				o.setIndex(o.arrayLen(), a)
				if err := it.alloc(16); err != nil {
					return Undefined(), err
				}
			}
			return NumberValue(float64(o.arrayLen())), nil
		},
		"pop": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || o.arrayLen() == 0 {
				return Undefined(), nil
			}
			last := o.arrayLen() - 1
			v := o.getIndex(last)
			o.truncate(last)
			return v, nil
		},
		"shift": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || o.arrayLen() == 0 {
				return Undefined(), nil
			}
			v := o.getIndex(0)
			n := o.arrayLen()
			for i := 1; i < n; i++ {
				o.setIndex(i-1, o.getIndex(i))
			}
			o.truncate(n - 1)
			return v, nil
		},
		"unshift": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined(), it.throwTypeError("unshift on non-array")
			}
			n := o.arrayLen()
			k := len(args)
			for i := n - 1; i >= 0; i-- {
				o.setIndex(i+k, o.getIndex(i))
			}
			for i, a := range args {
				o.setIndex(i, a)
				if err := it.alloc(16); err != nil {
					return Undefined(), err
				}
			}
			return NumberValue(float64(o.arrayLen())), nil
		},
		"join": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined(), it.throwTypeError("join on non-array")
			}
			if o.joining {
				return it.newString("")
			}
			o.joining = true
			defer func() { o.joining = false }()
			sep := ","
			if !arg(args, 0).IsUndefined() {
				var err error
				sep, err = valueToString(it, args[0])
				if err != nil {
					return Undefined(), err
				}
			}
			var b strings.Builder
			for i := 0; i < o.arrayLen(); i++ {
				if i > 0 {
					b.WriteString(sep)
				}
				el := o.getIndex(i)
				if el.IsUndefined() || el.IsNull() {
					continue
				}
				s, err := valueToString(it, el)
				if err != nil {
					return Undefined(), err
				}
				b.WriteString(s)
			}
			return it.newString(b.String())
		},
		"concat": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			out := NewArray()
			n := 0
			appendVal := func(v Value) error {
				if vo := v.Object(); vo != nil && vo.Class == ClassArray {
					for i := 0; i < vo.arrayLen(); i++ {
						out.setIndex(n, vo.getIndex(i))
						n++
						if err := it.alloc(16); err != nil {
							return err
						}
					}
					return nil
				}
				out.setIndex(n, v)
				n++
				return it.alloc(16)
			}
			if err := appendVal(ObjectValue(o)); err != nil {
				return Undefined(), err
			}
			for _, a := range args {
				if err := appendVal(a); err != nil {
					return Undefined(), err
				}
			}
			return ObjectValue(out), nil
		},
		"slice": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined(), it.throwTypeError("slice on non-array")
			}
			n := o.arrayLen()
			start := toIntArg(arg(args, 0), 0)
			end := toIntArg(arg(args, 1), n)
			if start < 0 {
				start += n
			}
			if end < 0 {
				end += n
			}
			start = clampIndex(start, n)
			end = clampIndex(end, n)
			out := NewArray()
			for i := start; i < end; i++ {
				out.setIndex(i-start, o.getIndex(i))
			}
			return ObjectValue(out), nil
		},
		"indexOf": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return NumberValue(-1), nil
			}
			target := arg(args, 0)
			for i := 0; i < o.arrayLen(); i++ {
				if strictEquals(o.getIndex(i), target) {
					return NumberValue(float64(i)), nil
				}
			}
			return NumberValue(-1), nil
		},
		"reverse": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined(), it.throwTypeError("reverse on non-array")
			}
			n := o.arrayLen()
			for i := 0; i < n/2; i++ {
				a, b := o.getIndex(i), o.getIndex(n-1-i)
				o.setIndex(i, b)
				o.setIndex(n-1-i, a)
			}
			return this, nil
		},
		"sort": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined(), it.throwTypeError("sort on non-array")
			}
			n := o.arrayLen()
			vals := make([]Value, n)
			for i := range vals {
				vals[i] = o.getIndex(i)
			}
			var sortErr error
			cmp := arg(args, 0).Object()
			sort.SliceStable(vals, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				if cmp.IsCallable() {
					r, err := it.callFunction(cmp, Undefined(), []Value{vals[i], vals[j]})
					if err != nil {
						sortErr = err
						return false
					}
					return r.ToNumber() < 0
				}
				a, _ := valueToString(it, vals[i])
				b, _ := valueToString(it, vals[j])
				return a < b
			})
			if sortErr != nil {
				return Undefined(), sortErr
			}
			for i, v := range vals {
				o.setIndex(i, v)
			}
			return this, nil
		},
		"toString": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := valueToString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return it.newString(s)
		},
	}

	objectMethods = map[string]HostFn{
		"hasOwnProperty": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return BoolValue(false), nil
			}
			name, err := valueToString(it, arg(args, 0))
			if err != nil {
				return Undefined(), err
			}
			_, ok := o.GetOwn(name)
			return BoolValue(ok), nil
		},
		"toString": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := valueToString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return StringValue(s), nil
		},
		"valueOf": func(it *Interp, this Value, args []Value) (Value, error) {
			return this, nil
		},
	}

	functionMethods = map[string]HostFn{
		"call": func(it *Interp, this Value, args []Value) (Value, error) {
			fn := this.Object()
			if !fn.IsCallable() {
				return Undefined(), it.throwTypeError("call on non-function")
			}
			var rest []Value
			if len(args) > 1 {
				rest = args[1:]
			}
			return it.callFunction(fn, arg(args, 0), rest)
		},
		"apply": func(it *Interp, this Value, args []Value) (Value, error) {
			fn := this.Object()
			if !fn.IsCallable() {
				return Undefined(), it.throwTypeError("apply on non-function")
			}
			var rest []Value
			if ao := arg(args, 1).Object(); ao != nil && ao.Class == ClassArray {
				for i := 0; i < ao.arrayLen(); i++ {
					rest = append(rest, ao.getIndex(i))
				}
			}
			return it.callFunction(fn, arg(args, 0), rest)
		},
		"toString": func(it *Interp, this Value, args []Value) (Value, error) {
			s, err := valueToString(it, this)
			if err != nil {
				return Undefined(), err
			}
			return StringValue(s), nil
		},
	}
}

func formatRadix(f float64, radix int) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	neg := f < 0
	n := int64(math.Abs(math.Trunc(f)))
	if n == 0 {
		return "0"
	}
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	var buf []byte
	for n > 0 {
		buf = append([]byte{digits[n%int64(radix)]}, buf...)
		n /= int64(radix)
	}
	if neg {
		buf = append([]byte{'-'}, buf...)
	}
	return string(buf)
}

// installBuiltins populates the global scope.
func installBuiltins(it *Interp) {
	g := it.Global
	def := func(name string, fn HostFn) {
		g.Declare(name, ObjectValue(NewHostFunc(name, fn)))
	}

	g.Declare("undefined", Undefined())
	g.Declare("NaN", NumberValue(math.NaN()))
	g.Declare("Infinity", NumberValue(math.Inf(1)))

	def("eval", func(it *Interp, this Value, args []Value) (Value, error) {
		src := arg(args, 0)
		if !src.IsString() {
			return src, nil
		}
		return it.EvalInScope(src.Str(), it.CurrentScope())
	})
	def("parseInt", func(it *Interp, this Value, args []Value) (Value, error) {
		s, err := valueToString(it, arg(args, 0))
		if err != nil {
			return Undefined(), err
		}
		radix := toIntArg(arg(args, 1), 0)
		return NumberValue(parseIntJS(s, radix)), nil
	})
	def("parseFloat", func(it *Interp, this Value, args []Value) (Value, error) {
		s, err := valueToString(it, arg(args, 0))
		if err != nil {
			return Undefined(), err
		}
		return NumberValue(parseFloatJS(s)), nil
	})
	def("isNaN", func(it *Interp, this Value, args []Value) (Value, error) {
		return BoolValue(math.IsNaN(arg(args, 0).ToNumber())), nil
	})
	def("isFinite", func(it *Interp, this Value, args []Value) (Value, error) {
		f := arg(args, 0).ToNumber()
		return BoolValue(!math.IsNaN(f) && !math.IsInf(f, 0)), nil
	})
	def("unescape", func(it *Interp, this Value, args []Value) (Value, error) {
		s, err := valueToString(it, arg(args, 0))
		if err != nil {
			return Undefined(), err
		}
		return it.newString(unescapeJS(s))
	})
	def("escape", func(it *Interp, this Value, args []Value) (Value, error) {
		s, err := valueToString(it, arg(args, 0))
		if err != nil {
			return Undefined(), err
		}
		return it.newString(escapeJS(s))
	})

	// String constructor with fromCharCode.
	strCtor := NewHostFunc("String", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return StringValue(""), nil
		}
		s, err := valueToString(it, args[0])
		if err != nil {
			return Undefined(), err
		}
		return it.newString(s)
	})
	strCtor.Set("fromCharCode", ObjectValue(NewHostFunc("fromCharCode", func(it *Interp, this Value, args []Value) (Value, error) {
		units := make([]uint16, len(args))
		for i, a := range args {
			units[i] = uint16(toUint32(a.ToNumber()))
		}
		return it.newString(unitsToString(units))
	})))
	g.Declare("String", ObjectValue(strCtor))

	g.Declare("Number", ObjectValue(NewHostFunc("Number", func(it *Interp, this Value, args []Value) (Value, error) {
		return NumberValue(arg(args, 0).ToNumber()), nil
	})))
	g.Declare("Boolean", ObjectValue(NewHostFunc("Boolean", func(it *Interp, this Value, args []Value) (Value, error) {
		return BoolValue(arg(args, 0).ToBoolean()), nil
	})))
	g.Declare("Array", ObjectValue(NewHostFunc("Array", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 1 && args[0].IsNumber() {
			a := NewArray()
			a.length = int(args[0].ToNumber())
			return ObjectValue(a), nil
		}
		return ObjectValue(NewArray(args...)), nil
	})))
	g.Declare("Object", ObjectValue(NewHostFunc("Object", func(it *Interp, this Value, args []Value) (Value, error) {
		if a := arg(args, 0); a.IsObject() {
			return a, nil
		}
		return ObjectValue(NewObject()), nil
	})))
	// Function constructor: builds a function from source, an eval variant
	// obfuscators use (new Function("a", "return a*2")).
	g.Declare("Function", ObjectValue(NewHostFunc("Function", func(it *Interp, this Value, args []Value) (Value, error) {
		params := make([]string, 0, len(args))
		body := ""
		for i, a := range args {
			s, err := valueToString(it, a)
			if err != nil {
				return Undefined(), err
			}
			if i == len(args)-1 {
				body = s
			} else {
				params = append(params, s)
			}
		}
		src := "(function(" + strings.Join(params, ",") + "){" + body + "})"
		return it.EvalInScope(src, it.Global)
	})))
	g.Declare("Error", ObjectValue(NewHostFunc("Error", func(it *Interp, this Value, args []Value) (Value, error) {
		o := NewObject()
		o.Class = ClassError
		o.Set("name", StringValue("Error"))
		msg, err := valueToString(it, arg(args, 0))
		if err != nil {
			return Undefined(), err
		}
		o.Set("message", StringValue(msg))
		return ObjectValue(o), nil
	})))

	mathObj := NewHostObject("Math")
	mathObj.Set("PI", NumberValue(math.Pi))
	mathObj.Set("E", NumberValue(math.E))
	mathFns := map[string]func(float64) float64{
		"floor": math.Floor, "ceil": math.Ceil, "abs": math.Abs,
		"sqrt": math.Sqrt, "sin": math.Sin, "cos": math.Cos,
		"log": math.Log, "exp": math.Exp,
	}
	for name, fn := range mathFns {
		fn := fn
		mathObj.Set(name, ObjectValue(NewHostFunc(name, func(it *Interp, this Value, args []Value) (Value, error) {
			return NumberValue(fn(arg(args, 0).ToNumber())), nil
		})))
	}
	mathObj.Set("round", ObjectValue(NewHostFunc("round", func(it *Interp, this Value, args []Value) (Value, error) {
		return NumberValue(math.Floor(arg(args, 0).ToNumber() + 0.5)), nil
	})))
	mathObj.Set("pow", ObjectValue(NewHostFunc("pow", func(it *Interp, this Value, args []Value) (Value, error) {
		return NumberValue(math.Pow(arg(args, 0).ToNumber(), arg(args, 1).ToNumber())), nil
	})))
	mathObj.Set("max", ObjectValue(NewHostFunc("max", func(it *Interp, this Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, a.ToNumber())
		}
		return NumberValue(out), nil
	})))
	mathObj.Set("min", ObjectValue(NewHostFunc("min", func(it *Interp, this Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, a.ToNumber())
		}
		return NumberValue(out), nil
	})))
	// Deterministic PRNG: reproducible runs matter more than entropy here.
	var rngState uint64 = 0x9e3779b97f4a7c15
	mathObj.Set("random", ObjectValue(NewHostFunc("random", func(it *Interp, this Value, args []Value) (Value, error) {
		rngState ^= rngState << 13
		rngState ^= rngState >> 7
		rngState ^= rngState << 17
		return NumberValue(float64(rngState>>11) / float64(1<<53)), nil
	})))
	g.Declare("Math", ObjectValue(mathObj))
}

func parseIntJS(s string, radix int) float64 {
	t := strings.TrimLeftFunc(s, isStrWhiteSpace)
	neg := false
	if strings.HasPrefix(t, "-") {
		neg = true
		t = t[1:]
	} else if strings.HasPrefix(t, "+") {
		t = t[1:]
	}
	if radix == 0 {
		if strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X") {
			radix = 16
			t = t[2:]
		} else {
			radix = 10
		}
	} else if radix == 16 && (strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X")) {
		t = t[2:]
	}
	if radix < 2 || radix > 36 {
		return math.NaN()
	}
	var out float64
	digits := 0
	for i := 0; i < len(t); i++ {
		var d int
		c := t[i]
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case c >= 'a' && c <= 'z':
			d = int(c-'a') + 10
		case c >= 'A' && c <= 'Z':
			d = int(c-'A') + 10
		default:
			d = 99
		}
		if d >= radix {
			break
		}
		out = out*float64(radix) + float64(d)
		digits++
	}
	if digits == 0 {
		return math.NaN()
	}
	if neg {
		out = -out
	}
	return out
}

// parseFloatJS implements the global parseFloat: the longest prefix of
// the trimmed string that is a decimal literal (or Infinity), else NaN.
func parseFloatJS(s string) float64 {
	t := strings.TrimLeftFunc(s, isStrWhiteSpace)
	i := 0
	if i < len(t) && (t[i] == '+' || t[i] == '-') {
		i++
	}
	if strings.HasPrefix(t[i:], "Infinity") {
		if t[0] == '-' {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	digits := 0
	for ; i < len(t) && isDigit(t[i]); i++ {
		digits++
	}
	if i < len(t) && t[i] == '.' {
		for i++; i < len(t) && isDigit(t[i]); i++ {
			digits++
		}
	}
	if digits == 0 {
		return math.NaN()
	}
	end := i
	if i < len(t) && (t[i] == 'e' || t[i] == 'E') {
		i++
		if i < len(t) && (t[i] == '+' || t[i] == '-') {
			i++
		}
		if i < len(t) && isDigit(t[i]) {
			for i < len(t) && isDigit(t[i]) {
				i++
			}
			end = i
		}
	}
	f, err := parseDecimal(t[:end])
	if err != nil {
		return math.NaN()
	}
	return f
}

// unescapeJS implements the legacy global unescape(): %uXXXX and %XX.
func unescapeJS(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c == '%' {
			if i+5 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
				if v, ok := hex4(s[i+2 : i+6]); ok {
					b.WriteRune(rune(v))
					i += 6
					continue
				}
			}
			if i+2 < len(s) {
				hi, ok1 := hexDigit(s[i+1])
				lo, ok2 := hexDigit(s[i+2])
				if ok1 && ok2 {
					b.WriteRune(rune(hi<<4 | lo))
					i += 3
					continue
				}
			}
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		b.WriteRune(r)
		i += size
	}
	return b.String()
}

func hex4(s string) (int, bool) {
	v := 0
	for i := 0; i < 4; i++ {
		d, ok := hexDigit(s[i])
		if !ok {
			return 0, false
		}
		v = v*16 + d
	}
	return v, true
}

// escapeJS implements the legacy global escape().
func escapeJS(s string) string {
	const hexdig = "0123456789ABCDEF"
	var b strings.Builder
	for _, r := range s {
		switch {
		case r < 0x80 && (r == '@' || r == '*' || r == '_' || r == '+' || r == '-' || r == '.' || r == '/' ||
			(r >= '0' && r <= '9') || (r >= 'A' && r <= 'Z') || (r >= 'a' && r <= 'z')):
			b.WriteRune(r)
		case r < 0x100:
			b.WriteByte('%')
			b.WriteByte(hexdig[r>>4])
			b.WriteByte(hexdig[r&0xf])
		default:
			b.WriteString("%u")
			b.WriteByte(hexdig[(r>>12)&0xf])
			b.WriteByte(hexdig[(r>>8)&0xf])
			b.WriteByte(hexdig[(r>>4)&0xf])
			b.WriteByte(hexdig[r&0xf])
		}
	}
	return b.String()
}
