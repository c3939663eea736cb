package js

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refObject is the map-only object model arrays had before they kept a
// dense prefix: every property, index or named, is a map entry, and an
// array's for-in order sorts its index keys ahead of the named ones.
// FuzzArrayModel holds Object to it.
type refObject struct {
	array  bool
	props  map[string]Value
	keys   []string
	length int
}

func (r *refObject) set(name string, v Value) {
	if r.array && name == "length" {
		if n := int(v.ToNumber()); n >= 0 {
			r.truncate(n)
		}
		return
	}
	if _, ok := r.props[name]; !ok {
		r.keys = append(r.keys, name)
	}
	r.props[name] = v
	if idx, ok := arrayIndex(name); ok && r.array && idx >= r.length {
		r.length = idx + 1
	}
}

func (r *refObject) del(name string) {
	if _, ok := r.props[name]; !ok {
		return
	}
	delete(r.props, name)
	for i, k := range r.keys {
		if k == name {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			break
		}
	}
}

func (r *refObject) truncate(n int) {
	if n < r.length {
		for _, k := range append([]string(nil), r.keys...) {
			if idx, ok := arrayIndex(k); ok && idx >= n {
				r.del(k)
			}
		}
	}
	r.length = n
}

func (r *refObject) forIn() []string {
	out := append([]string{}, r.keys...)
	if r.array {
		sort.SliceStable(out, func(i, j int) bool {
			ai, aok := arrayIndex(out[i])
			bi, bok := arrayIndex(out[j])
			return aok && (!bok || ai < bi)
		})
	}
	return out
}

func (r *refObject) join() string {
	parts := make([]string, max(r.length, 0))
	for i := range parts {
		if v := r.props[strconv.Itoa(i)]; !v.IsUndefined() && !v.IsNull() {
			parts[i] = ToDisplay(v)
		}
	}
	return strings.Join(parts, ",")
}

// arrayModelNames are the named keys FuzzArrayModel mixes in: each one
// looks like an index but is not one.
var arrayModelNames = []string{"x", "01", "-0", "1.5", "1000000000", "length"}

// FuzzArrayModel decodes bytes into a sequence of operations on an array
// (or, when the first byte is odd, a plain object) and applies them both
// to an Object and to refObject. After every operation the two must agree
// on own properties, for-in order, length and join, and the Object must
// keep its dense-prefix invariants.
func FuzzArrayModel(f *testing.F) {
	for _, s := range [][]byte{
		// Set in order, delete inside the prefix, push past the hole,
		// fill the hole (pull-up), pop.
		{0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 1, 1, 0, 0, 1, 9, 0},
		// Descending sets end in a pull-up; an index-named set; truncate.
		{0, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0, 5, 7, 3, 3},
		// new Array(2): push past the holes, fill them, shrink, extend, push.
		{2, 1, 0, 0, 0, 0, 1, 3, 1, 3, 10, 1, 0},
		// A four-element literal, a hole, every named key, deletes.
		{4, 4, 0, 6, 0, 6, 1, 6, 2, 6, 3, 6, 4, 6, 5, 8, 0, 2, 2},
		// A plain object keeps numeric keys in insertion order.
		{1, 0, 3, 0, 1, 6, 0, 0, 2, 2, 1, 1, 0, 5, 7, 6, 5},
		// Extend by length, a far index, pop, delete the head and refill
		// it, truncate past the far index.
		{8, 3, 30, 0, 20, 0, 1, 9, 0, 8, 2, 2, 0, 0, 0, 3, 5},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		o, ref := newModelPair(ops[0])
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%10, int(ops[i+1])
			val := NumberValue(float64(i))
			var desc string
			switch op {
			case 0: // indexed set, any order
				desc = fmt.Sprintf("a[%d]=v", arg%40)
				o.setIndex(arg%40, val)
				ref.set(strconv.Itoa(arg%40), val)
			case 1: // push
				desc = "push"
				n := o.arrayLen()
				o.setIndex(n, val)
				ref.set(strconv.Itoa(n), val)
			case 2: // delete by index, inside or past the prefix
				desc = fmt.Sprintf("delete a[%d]", arg%40)
				o.Delete(strconv.Itoa(arg % 40))
				ref.del(strconv.Itoa(arg % 40))
			case 3: // length truncate or extend
				desc = fmt.Sprintf("length=%d", arg%48)
				o.Set("length", NumberValue(float64(arg%48)))
				ref.set("length", NumberValue(float64(arg%48)))
			case 4: // hole, as a [1,,3] literal writes it
				desc = "hole"
				n := o.arrayLen()
				o.setIndex(n, Undefined())
				ref.set(strconv.Itoa(n), Undefined())
			case 5: // set by index name
				desc = fmt.Sprintf("a[%q]=v", strconv.Itoa(arg%40))
				o.Set(strconv.Itoa(arg%40), val)
				ref.set(strconv.Itoa(arg%40), val)
			case 6, 7: // named key set
				name := arrayModelNames[arg%len(arrayModelNames)]
				desc = fmt.Sprintf("a[%q]=v", name)
				o.Set(name, val)
				ref.set(name, val)
			case 8: // named key delete
				name := arrayModelNames[arg%len(arrayModelNames)]
				desc = fmt.Sprintf("delete a[%q]", name)
				o.Delete(name)
				ref.del(name)
			case 9: // pop: read the last element, then truncate
				desc = "pop"
				if n := o.arrayLen(); n > 0 {
					if got, want := o.getIndex(n-1), ref.props[strconv.Itoa(n-1)]; !strictEquals(got, want) {
						t.Fatalf("op %d pop: got %s, want %s", i, ToDisplay(got), ToDisplay(want))
					}
					o.truncate(n - 1)
					ref.truncate(n - 1)
				}
			}
			compareModel(t, fmt.Sprintf("op %d (%s)", i, desc), o, ref)
		}
	})
}

// newModelPair builds the starting object the first fuzz byte selects.
func newModelPair(b byte) (*Object, *refObject) {
	ref := &refObject{array: b%2 == 0, props: map[string]Value{}}
	switch {
	case !ref.array:
		return NewObject(), ref
	case b%4 == 2: // new Array(n)
		n := int(b) % 37
		o := NewArray()
		o.length = n
		ref.length = n
		return o, ref
	default: // a literal of k elements
		k := int(b) % 7
		elems := make([]Value, k)
		for i := range elems {
			elems[i] = StringValue(strconv.Itoa(100 + i))
			ref.set(strconv.Itoa(i), elems[i])
		}
		return NewArray(elems...), ref
	}
}

func compareModel(t *testing.T, at string, o *Object, ref *refObject) {
	t.Helper()
	if o.arrayLen() != ref.length {
		t.Fatalf("%s: length %d, want %d", at, o.arrayLen(), ref.length)
	}
	if got, want := o.Keys(), ref.forIn(); !slices.Equal(got, want) {
		t.Fatalf("%s: keys %q, want %q", at, got, want)
	}
	probes := append([]string{}, arrayModelNames...)
	for i := 0; i < 50; i++ {
		probes = append(probes, strconv.Itoa(i))
	}
	for _, name := range probes {
		got, gok := o.GetOwn(name)
		want, wok := ref.props[name]
		if gok != wok || !strictEquals(got, want) {
			t.Fatalf("%s: own %q = %s,%v, want %s,%v", at, name, ToDisplay(got), gok, ToDisplay(want), wok)
		}
		if idx, ok := arrayIndex(name); ok {
			if got := o.getIndex(idx); !strictEquals(got, want) {
				t.Fatalf("%s: getIndex(%d) = %s, want %s", at, idx, ToDisplay(got), ToDisplay(want))
			}
		}
	}
	if ref.array {
		if got, want := ToDisplay(ObjectValue(o)), ref.join(); got != want {
			t.Fatalf("%s: join %q, want %q", at, got, want)
		}
	}
	checkArrayInvariants(t, at, o)
}

// checkArrayInvariants checks the dense-prefix representation: props holds
// no index below or at len(elems), sparse counts its index keys, and keys
// lists exactly the props keys.
func checkArrayInvariants(t *testing.T, at string, o *Object) {
	t.Helper()
	if o.Class != ClassArray && (len(o.elems) > 0 || o.sparse != 0) {
		t.Fatalf("%s: a %s object uses the dense prefix", at, o.Class)
	}
	sparse := 0
	for k := range o.props {
		if idx, ok := arrayIndex(k); ok && o.Class == ClassArray {
			sparse++
			if idx <= len(o.elems) {
				t.Fatalf("%s: props holds index %d with a prefix of %d", at, idx, len(o.elems))
			}
		}
	}
	if sparse != o.sparse {
		t.Fatalf("%s: sparse = %d, props holds %d index keys", at, o.sparse, sparse)
	}
	if len(o.keys) != len(o.props) {
		t.Fatalf("%s: %d keys for %d props", at, len(o.keys), len(o.props))
	}
	for _, k := range o.keys {
		if _, ok := o.props[k]; !ok {
			t.Fatalf("%s: key %q not in props", at, k)
		}
	}
	if len(o.elems) > max(o.length, 0) {
		t.Fatalf("%s: prefix %d longer than length %d", at, len(o.elems), o.length)
	}
}

// indexKeyScripts store through each spelling of index 0 and read the
// element back through all of them.
func indexKeyScripts() []string {
	var out []string
	for _, store := range []string{`a[-0]`, `a[0]`, `a["0"]`, `a[0.0]`} {
		out = append(out, `var a = []; `+store+` = "v"; var o = {}; o[-0] = 1;
			[a[-0], a[0], a["0"], a.length, (0 in a), a.hasOwnProperty("0"), o["0"]].join("|")`)
	}
	return out
}

// TestIndexKeySpellingsAgree: a[-0], a[0], a["0"] and a[0.0] name one
// element, whichever spelling stored it; the VM reaches it without a key
// string, the other spellings through ToString.
func TestIndexKeySpellingsAgree(t *testing.T) {
	for _, src := range indexKeyScripts() {
		v, err := New().Run(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got, want := ToDisplay(v), "v|v|v|1|true|true|1"; got != want {
			t.Errorf("%s: %q, want %q", src, got, want)
		}
		assertGolden(t, src, diffLimits{})
	}
}

// TestNumberToString pins ES Number::toString, including the cases where
// Go's own formatting differs.
func TestNumberToString(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "0"},
		{7, "7"},
		{-42, "-42"},
		{1234567.5, "1234567.5"},
		{0.5, "0.5"},
		{0.30000000000000004, "0.30000000000000004"},
		{0.00001, "0.00001"},
		{0.000001, "0.000001"},
		{1e-7, "1e-7"},
		{-1.5e-9, "-1.5e-9"},
		{1 << 53, "9007199254740992"},
		{1e20, "100000000000000000000"},
		{1e21, "1e+21"},
		{1.5e300, "1.5e+300"},
		{123456789012345680000, "123456789012345680000"},
		{math.MaxFloat64, "1.7976931348623157e+308"},
		{5e-324, "5e-324"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
	}
	for _, c := range cases {
		if got := numberToString(c.f); got != c.want {
			t.Errorf("numberToString(%v) = %q, want %q", c.f, got, c.want)
		}
	}
}

// TestNumericLiteralsRoundCorrectly: literals and parseFloat give the
// float64 nearest the decimal text, and parseFloat reads the longest
// prefix that is a decimal literal.
func TestNumericLiteralsRoundCorrectly(t *testing.T) {
	cases := map[string]string{
		`1.5e300`:                   "1.5e+300",
		`0.1`:                       "0.1",
		`123456789.123456789`:       "123456789.12345679",
		`9007199254740993`:          "9007199254740992",
		`1e400`:                     "Infinity",
		`1e-400`:                    "0",
		`.5e1`:                      "5",
		`parseFloat("1.5e300")`:     "1.5e+300",
		`parseFloat("  -2.5e-3xy")`: "-0.0025",
		`parseFloat("1e")`:          "1",
		`parseFloat("1.2.3")`:       "1.2",
		`parseFloat("-Infinity!")`:  "-Infinity",
		`parseFloat("-")`:           "NaN",
		`parseFloat(".")`:           "NaN",
		`parseFloat("e5")`:          "NaN",
		`1/parseFloat("-0")`:        "-Infinity",
	}
	for src, want := range cases {
		v, err := New().Run(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := ToDisplay(v); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

// TestLineContinuations: a backslash before LF, CR LF or a lone CR
// continues a string literal onto the next line and adds nothing to it.
func TestLineContinuations(t *testing.T) {
	for _, eol := range []string{"\n", "\r\n", "\r"} {
		src := "var s = 'a\\" + eol + "b'; s + s.length;"
		v, err := New().Run(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := ToDisplay(v); got != "ab2" {
			t.Errorf("%q = %q, want \"ab2\"", src, got)
		}
	}
}

// cyclicArrayScripts convert arrays that contain themselves; each used to
// recurse until the Go stack overflowed, which kills the whole process.
var cyclicArrayScripts = []string{
	`var a = []; a[0] = a; "" + a + "|" + a.join() + "|" + (+a);`,
	`var b = [1]; b[1] = b; b.join("-") + "|" + b + "|" + [b, 2];`,
	`var c = [1]; var d = [c]; c[1] = d; String(c) + "|" + d.join(";");`,
}

// TestCyclicArrayConverts: an array that contains itself converts as ""
// at the point of the cycle, as in browser engines.
func TestCyclicArrayConverts(t *testing.T) {
	want := []string{"||0", "1-|1,|1,,2", "1,|1,"}
	for i, src := range cyclicArrayScripts {
		v, err := New().Run(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := ToDisplay(v); got != want[i] {
			t.Errorf("%s = %q, want %q", src, got, want[i])
		}
		assertGolden(t, src, diffLimits{})
	}
}
