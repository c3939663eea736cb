package js

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// run evaluates src and returns the completion value.
func run(t *testing.T, src string) Value {
	t.Helper()
	it := New()
	v, err := it.Run(src)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return v
}

func runNum(t *testing.T, src string) float64 {
	t.Helper()
	v := run(t, src)
	if !v.IsNumber() {
		t.Fatalf("%q: got %s, want number", src, v.TypeOf())
	}
	return v.Num()
}

func runStr(t *testing.T, src string) string {
	t.Helper()
	v := run(t, src)
	if !v.IsString() {
		t.Fatalf("%q: got %s (%v), want string", src, v.TypeOf(), v)
	}
	return v.Str()
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"1+2;", 3},
		{"10-4;", 6},
		{"6*7;", 42},
		{"9/2;", 4.5},
		{"10%3;", 1},
		{"2*3+4;", 10},
		{"2+3*4;", 14},
		{"(2+3)*4;", 20},
		{"-5+3;", -2},
		{"1 << 4;", 16},
		{"255 >> 4;", 15},
		{"-1 >>> 28;", 15},
		{"0xff & 0x0f;", 15},
		{"0xf0 | 0x0f;", 255},
		{"0xff ^ 0x0f;", 240},
		{"~0;", -1},
		{"0x41;", 65},
		{"1e3;", 1000},
		{"2.5e-1;", 0.25},
		{"Math.pow(2,10);", 1024},
		{"Math.floor(3.7);", 3},
		{"Math.max(1,5,3);", 5},
	}
	for _, tt := range tests {
		if got := runNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestStringOps(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`'a'+'b';`, "ab"},
		{`'n='+5;`, "n=5"},
		{`5+'=n';`, "5=n"},
		{`'abc'.toUpperCase();`, "ABC"},
		{`'ABC'.toLowerCase();`, "abc"},
		{`'hello'.substring(1,3);`, "el"},
		{`'hello'.substr(1,3);`, "ell"},
		{`'hello'.slice(-3);`, "llo"},
		{`'hello'.charAt(1);`, "e"},
		{`'a,b,c'.split(',').join('-');`, "a-b-c"},
		{`'aXbXc'.replace('X','_');`, "a_bXc"},
		{`String.fromCharCode(72,105);`, "Hi"},
		{`'abc'.concat('def','!');`, "abcdef!"},
		{`typeof 'x';`, "string"},
		{`typeof 5;`, "number"},
		{`typeof undefined;`, "undefined"},
		{`typeof null;`, "object"},
		{`typeof function(){};`, "function"},
		{`typeof notDeclared;`, "undefined"},
		{`(256).toString(16);`, "100"},
	}
	for _, tt := range tests {
		if got := runStr(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestStringLengthAndCharCode(t *testing.T) {
	if got := runNum(t, `'hello'.length;`); got != 5 {
		t.Errorf("length = %v", got)
	}
	if got := runNum(t, `'A'.charCodeAt(0);`); got != 65 {
		t.Errorf("charCodeAt = %v", got)
	}
	// Non-ASCII: unescape produces UTF-16 semantics.
	if got := runNum(t, `unescape('%u0c0c%u0c0c').length;`); got != 2 {
		t.Errorf("unescape length = %v, want 2", got)
	}
	if got := runNum(t, `unescape('%u0c0c').charCodeAt(0);`); got != 0x0c0c {
		t.Errorf("unescape charCode = %v, want %v", got, 0x0c0c)
	}
	if got := runNum(t, `unescape('%41%42').length;`); got != 2 {
		t.Errorf("%%XX unescape length = %v", got)
	}
	if got := runStr(t, `unescape('%41%42');`); got != "AB" {
		t.Errorf("unescape = %q", got)
	}
	if got := runStr(t, `escape('A B');`); got != "A%20B" {
		t.Errorf("escape = %q", got)
	}
}

func TestControlFlow(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"var x=0; if (1<2) x=1; else x=2; x;", 1},
		{"var x=0; if (1>2) x=1; else x=2; x;", 2},
		{"var s=0; for (var i=1;i<=10;i++) s+=i; s;", 55},
		{"var s=0, i=0; while (i<5) { s+=i; i++; } s;", 10},
		{"var s=0, i=0; do { s+=i; i++; } while (i<3); s;", 3},
		{"var s=0; for (var i=0;i<10;i++){ if (i==5) break; s+=i; } s;", 10},
		{"var s=0; for (var i=0;i<5;i++){ if (i%2) continue; s+=i; } s;", 6},
		{"var r=0; switch(2){case 1: r=10; break; case 2: r=20; break; default: r=30;} r;", 20},
		{"var r=0; switch(9){case 1: r=10; break; default: r=30;} r;", 30},
		{"var r=0; switch(1){case 1: r+=1; case 2: r+=2; break; case 3: r+=4;} r;", 3},
		{"var c=0; var o={a:1,b:2,c:3}; for (var k in o) c++; c;", 3},
		{"1<2 ? 10 : 20;", 10},
		{"1>2 ? 10 : 20;", 20},
		{"var x=5; x += 3; x;", 8},
		{"var x=5; x *= 3; x;", 15},
		{"var x=8; x >>= 2; x;", 2},
		{"var x=1; x++; ++x; x;", 3},
		{"var x=1; x--; x;", 0},
		{"var x=5; var y = x++; y;", 5},
		{"var x=5; var y = ++x; y;", 6},
	}
	for _, tt := range tests {
		if got := runNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestFunctions(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"function f(a,b){return a+b;} f(2,3);", 5},
		{"var f = function(a){return a*2;}; f(21);", 42},
		{"function fib(n){ if (n<2) return n; return fib(n-1)+fib(n-2);} fib(10);", 55},
		{"function outer(){ var x=10; return function(){ return x+1; }; } outer()();", 11},
		{"function f(){ return arguments.length; } f(1,2,3);", 3},
		{"function f(){ return arguments[1]; } f(10,20);", 20},
		{"function f(a){ return a+0; } f();", math.NaN()},
		{"var o = {v: 7, get: function(){ return this.v; }}; o.get();", 7},
		{"function F(x){ this.x = x; } var o = new F(9); o.x;", 9},
		{"function f(a,b){return a-b;} f.call(null, 10, 3);", 7},
		{"function f(a,b){return a-b;} f.apply(null, [10, 3]);", 7},
		{"var s=0; function add(n){s+=n;} [1,2,3].sort(function(a,b){return b-a;}); add(1); s;", 1},
	}
	for _, tt := range tests {
		got := runNum(t, tt.src)
		if math.IsNaN(tt.want) {
			if !math.IsNaN(got) {
				t.Errorf("%q = %v, want NaN", tt.src, got)
			}
			continue
		}
		if got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestArrays(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"[1,2,3].length;", 3},
		{"var a=[]; a.push(4); a.push(5,6); a.length;", 3},
		{"var a=[1,2,3]; a.pop();", 3},
		{"var a=[1,2,3]; a.pop(); a.length;", 2},
		{"var a=[7,8]; a.shift();", 7},
		{"var a=[7,8]; a.unshift(6); a[0];", 6},
		{"var a=new Array(10); a.length;", 10},
		{"[1,2,3].indexOf(2);", 1},
		{"[1,2,3].indexOf(9);", -1},
		{"[3,1,2].sort()[0];", 1},
		{"[1,2].concat([3,4]).length;", 4},
		{"[1,2,3,4].slice(1,3).length;", 2},
		{"var a=[1,2,3]; a.reverse(); a[0];", 3},
		{"var a=[1,2,3]; a.length = 1; a.length;", 1},
		{"var a=[]; a[5]=1; a.length;", 6},
	}
	for _, tt := range tests {
		if got := runNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
	if got := runStr(t, "[1,2,3].join('+');"); got != "1+2+3" {
		t.Errorf("join = %q", got)
	}
	if got := runStr(t, "''+[1,2,3];"); got != "1,2,3" {
		t.Errorf("array toString = %q", got)
	}
}

func TestObjects(t *testing.T) {
	if got := runNum(t, "var o = {a: 1, b: {c: 2}}; o.b.c;"); got != 2 {
		t.Errorf("nested access = %v", got)
	}
	if got := runNum(t, "var o = {}; o['x'] = 3; o.x;"); got != 3 {
		t.Errorf("computed set = %v", got)
	}
	if got := runNum(t, "var o = {a:1}; delete o.a; o.a === undefined ? 1 : 0;"); got != 1 {
		t.Errorf("delete = %v", got)
	}
	if v := run(t, "var o = {a:1}; 'a' in o;"); !v.Bool() {
		t.Error("'a' in o should be true")
	}
	if v := run(t, "var o = {a:1}; o.hasOwnProperty('a');"); !v.Bool() {
		t.Error("hasOwnProperty true expected")
	}
	if v := run(t, "[1] instanceof Array;"); !v.Bool() {
		t.Error("[] instanceof Array expected true")
	}
}

func TestEquality(t *testing.T) {
	trueCases := []string{
		"1 == '1';", "null == undefined;", "0 == false;", "'' == false;",
		"1 === 1;", "'a' === 'a';", "null === null;",
		"NaN != NaN;", "1 !== '1';",
	}
	for _, src := range trueCases {
		if v := run(t, src); !v.ToBoolean() {
			t.Errorf("%q should be true", src)
		}
	}
	falseCases := []string{"NaN == NaN;", "null == 0;", "undefined == 0;", "1 === '1';"}
	for _, src := range falseCases {
		if v := run(t, src); v.ToBoolean() {
			t.Errorf("%q should be false", src)
		}
	}
}

func TestExceptions(t *testing.T) {
	if got := runNum(t, "var r=0; try { throw 42; } catch(e) { r = e; } r;"); got != 42 {
		t.Errorf("catch thrown number = %v", got)
	}
	if got := runStr(t, "var r=''; try { undefinedFn(); } catch(e) { r = e.name; } r;"); got != "TypeError" && got != "ReferenceError" {
		t.Errorf("error name = %q", got)
	}
	if got := runNum(t, "var r=0; try { throw 1; } catch(e) { r+=10; } finally { r+=100; } r;"); got != 110 {
		t.Errorf("finally = %v", got)
	}
	it := New()
	_, err := it.Run("throw 'boom';")
	var te *ThrowError
	if !errors.As(err, &te) {
		t.Fatalf("expected ThrowError, got %v", err)
	}
	if te.Value.Str() != "boom" {
		t.Errorf("thrown value = %v", te.Value)
	}
	// Uncaught error object from host throws.
	_, err = it.Run("null.x;")
	if !errors.As(err, &te) {
		t.Fatalf("expected ThrowError for null deref, got %v", err)
	}
}

func TestEval(t *testing.T) {
	if got := runNum(t, "eval('2+3');"); got != 5 {
		t.Errorf("eval = %v", got)
	}
	if got := runNum(t, "var x = 7; eval('x+1');"); got != 8 {
		t.Errorf("eval scope read = %v", got)
	}
	if got := runNum(t, "var x = 1; eval('x = 9'); x;"); got != 9 {
		t.Errorf("eval scope write = %v", got)
	}
	if got := runNum(t, "function f(){ var y = 5; return eval('y*2'); } f();"); got != 10 {
		t.Errorf("eval in function scope = %v", got)
	}
	if got := runNum(t, "eval('var q = 3; q+q');"); got != 6 {
		t.Errorf("eval var decl = %v", got)
	}
	// eval of nested eval (multi-layer obfuscation).
	if got := runNum(t, `eval("eval('1+1')");`); got != 2 {
		t.Errorf("nested eval = %v", got)
	}
	// Syntax errors inside eval are catchable.
	if got := runNum(t, "var r=0; try { eval('}{'); } catch(e) { r=1; } r;"); got != 1 {
		t.Errorf("eval syntax error catchable = %v", got)
	}
}

func TestHeapAccounting(t *testing.T) {
	it := New()
	if _, err := it.Run("var s = 'aaaaaaaaaa';"); err != nil {
		t.Fatal(err)
	}
	base := it.HeapBytes
	// Doubling concat: allocations accumulate.
	if _, err := it.Run("var t = s; for (var i=0;i<10;i++) t = t + t;"); err != nil {
		t.Fatal(err)
	}
	grown := it.HeapBytes - base
	// Final string is 10*2^10 = 10240 chars -> ~20KB; cumulative doubling
	// allocations sum to roughly twice that.
	if grown < 20_000 {
		t.Errorf("heap grew %d bytes, want >= 20000", grown)
	}
}

func TestHeapSprayPattern(t *testing.T) {
	// The canonical heap-spray loop from PDF malware, scaled down.
	src := `
var shellcode = unescape("%u9090%u9090%uCCCC");
var spray = unescape("%u0c0c%u0c0c");
while (spray.length < 16384) spray += spray;
var arr = [];
for (var i = 0; i < 50; i++) arr[i] = spray + shellcode;
arr.length;
`
	it := New()
	v, err := it.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 50 {
		t.Errorf("spray array length = %v", v.Num())
	}
	// 50 strings of ~16K units at 2 bytes/unit plus the doubling chain.
	if it.HeapBytes < 1_500_000 {
		t.Errorf("spray heap = %d, want >= 1.5MB", it.HeapBytes)
	}
}

func TestStepBudget(t *testing.T) {
	it := New()
	it.StepLimit = 10_000
	_, err := it.Run("while(true){}")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestHeapLimit(t *testing.T) {
	it := New()
	it.MaxHeap = 1 << 20
	_, err := it.Run("var s='aaaaaaaaaaaaaaaa'; while(true) s += s;")
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("expected ErrHeapLimit, got %v", err)
	}
}

func TestHostObjects(t *testing.T) {
	it := New()
	calls := 0
	host := NewHostObject("app")
	host.Set("alert", ObjectValue(NewHostFunc("alert", func(it *Interp, this Value, args []Value) (Value, error) {
		calls++
		return Undefined(), nil
	})))
	host.DefineGetter("viewerVersion", func(it *Interp) (Value, error) {
		return NumberValue(9.0), nil
	})
	it.Global.Declare("app", ObjectValue(host))

	v, err := it.Run("app.alert('x'); app.alert('y'); app.viewerVersion;")
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("alert called %d times", calls)
	}
	if v.Num() != 9.0 {
		t.Errorf("viewerVersion = %v", v.Num())
	}
}

func TestThisBinding(t *testing.T) {
	it := New()
	doc := NewHostObject("Doc")
	info := NewObject()
	info.Set("title", StringValue("payload-here"))
	doc.Set("info", ObjectValue(info))
	it.This = ObjectValue(doc)
	it.Global.Declare("this", it.This) // not needed but harmless

	v, err := it.Run("this.info.title;")
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "payload-here" {
		t.Errorf("this.info.title = %q", v.Str())
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"var ;", "function(){}", "if (", "for (;;", "x ===", "1 +",
		"'unterminated", "{", "do { } while", "try {}",
		"var a = /re/;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

// TestCommaSeparatedLists: arguments, parameters, array and object
// literals all require a comma between items, as every engine does; one
// trailing comma and array holes are accepted, as newer engines accept
// them.
func TestCommaSeparatedLists(t *testing.T) {
	tests := []struct {
		list, missing, trailing string
	}{
		{"arguments", `f("Open" "x");`, `f("Open", "x",);`},
		{"parameters", `function f(a b){}`, `function f(a, b,){}`},
		{"array", `[1 2];`, `[1, 2,];`},
		{"object", `({a: 1 b: 2});`, `({a: 1, b: 2,});`},
	}
	for _, tt := range tests {
		if _, err := Parse(tt.missing); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: %q parsed (err %v), want a syntax error", tt.list, tt.missing, err)
		}
		if _, err := Parse(tt.trailing); err != nil {
			t.Errorf("%s: %q: %v", tt.list, tt.trailing, err)
		}
	}
	for _, src := range []string{`f(1,,);`, `f(,);`, `function f(a,,){}`, `({a: 1,,});`} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
	arrays := []struct {
		src  string
		want float64
	}{
		{"[1, 2,].length;", 2},
		{"[1,, 2].length;", 3},
		{"[,].length;", 1},
		{"[1,,].length;", 2},
		{"[].length;", 0},
		{"(function(a, b,) { return a + b; })(1, 2,);", 3},
	}
	for _, tt := range arrays {
		if got := runNum(t, tt.src); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestASI(t *testing.T) {
	// Newline-terminated statements without semicolons.
	if got := runNum(t, "var a = 1\nvar b = 2\na + b"); got != 3 {
		t.Errorf("ASI = %v", got)
	}
	if got := runNum(t, "function f() { return\n5 }\nf() === undefined ? 1 : 0"); got != 1 {
		t.Errorf("return ASI = %v", got)
	}
}

func TestFunctionToStringGivesSource(t *testing.T) {
	got := runStr(t, "function f(a){ return a; } ''+f;")
	if !strings.Contains(got, "function f(a)") {
		t.Errorf("function source = %q", got)
	}
}

func TestStringIndexAccess(t *testing.T) {
	if got := runStr(t, "'abc'[1];"); got != "b" {
		t.Errorf("string index = %q", got)
	}
}

func TestVarHoisting(t *testing.T) {
	if got := runNum(t, "function f(){ return typeof x === 'undefined' ? 1 : 0; var x = 5; } f();"); got != 1 {
		t.Errorf("var hoisting = %v", got)
	}
	if got := runNum(t, "g(); function g(){ return 1; } g();"); got != 1 {
		t.Errorf("function hoisting = %v", got)
	}
}

func TestDeterministicMathRandom(t *testing.T) {
	a := runNum(t, "Math.random();")
	b := runNum(t, "Math.random();")
	if a != b {
		t.Errorf("Math.random not deterministic across fresh interpreters: %v vs %v", a, b)
	}
}

func TestMoreBuiltins(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`'hello'.lastIndexOf('l') + '';`, "3"},
		{`'abc'.indexOf('b', 2) + '';`, "-1"},
		{`'a-b-c'.split('')[0];`, "a"},
		{`(3.14159).toFixed(2);`, "3.14"},
		{`(5).toFixed(0);`, "5"},
		{`[1,[2,3]].concat(4).length + '';`, "3"},
		{`['b','a','c'].sort().join('');`, "abc"},
		{`[5,40,1].sort(function(a,b){return a-b;}).join(',');`, "1,5,40"},
		{`var a=[1,2,3]; a.slice(-2).join(',');`, "2,3"},
		{`'xyz'.substring(2, 0);`, "xy"},
		{`'abcdef'.substr(-3, 2);`, "de"},
		{`parseFloat('3.5abc') + '';`, "3.5"},
		{`parseFloat('junk') + '';`, "NaN"},
		{`isFinite(1/0) + '';`, "false"},
		{`isFinite(42) + '';`, "true"},
		{`(1, 2, 3) + '';`, "3"},
		{`void 0 === undefined ? 'y' : 'n';`, "y"},
		{`var o = {k: 1}; delete o.k; ('k' in o) + '';`, "false"},
		{`[] instanceof Object ? 'y' : 'n';`, "y"},
		{`(function(){}) instanceof Function ? 'y' : 'n';`, "y"},
		{`new Error('boom').message;`, "boom"},
		{`String(42);`, "42"},
		{`Number('0x10') + '';`, "16"},
		{`Boolean('') + '';`, "false"},
		{`'ok'.valueOf();`, "ok"},
		{`(255).toString(2);`, "11111111"},
		{`'A,B'.toLowerCase().split(',').reverse().join('');`, "ba"},
		{`Math.min(3,1,2) + '';`, "1"},
		{`Math.abs(-9) + '';`, "9"},
		{`Math.round(2.5) + '';`, "3"},
		{`Math.sqrt(81) + '';`, "9"},
	}
	for _, tt := range tests {
		v := run(t, tt.src)
		got, err := valueToString(nil, v)
		if err != nil {
			t.Fatalf("%q: %v", tt.src, err)
		}
		if got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestObjectLiteralKeysAndForInOrder(t *testing.T) {
	got := runStr(t, `
var o = {z: 1, a: 2, "m n": 3, 42: 4};
var keys = [];
for (var k in o) keys.push(k);
keys.join('|');
`)
	if got != "z|a|m n|42" {
		t.Errorf("for-in order = %q", got)
	}
}

func TestArrayShiftUnshiftSequence(t *testing.T) {
	if got := runStr(t, `var a=[3]; a.unshift(1,2); a.push(4); a.shift(); a.join(',');`); got != "2,3,4" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionApplyWithThis(t *testing.T) {
	if got := runNum(t, `
var o = {v: 10};
function get(extra) { return this.v + extra; }
get.apply(o, [5]);
`); got != 15 {
		t.Errorf("apply this = %v", got)
	}
	if got := runNum(t, `
var o = {v: 20};
function get2(extra) { return this.v + extra; }
get2.call(o, 1);
`); got != 21 {
		t.Errorf("call this = %v", got)
	}
}

func TestDoWhileAndNestedBreak(t *testing.T) {
	if got := runNum(t, `
var n = 0;
do {
  for (var i = 0; i < 10; i++) {
    if (i == 3) break;
    n++;
  }
  n += 100;
} while (false);
n;
`); got != 103 {
		t.Errorf("got %v", got)
	}
}

func TestThrowObjectAndRethrow(t *testing.T) {
	if got := runStr(t, `
var msg = '';
try {
  try {
    throw new Error('inner');
  } catch (e) {
    throw e;
  }
} catch (e2) {
  msg = e2.message;
}
msg;
`); got != "inner" {
		t.Errorf("got %q", got)
	}
}

func TestHostGetterDynamicProperty(t *testing.T) {
	it := New()
	o := NewHostObject("env")
	calls := 0
	o.DefineGetter("now", func(it *Interp) (Value, error) {
		calls++
		return NumberValue(float64(calls)), nil
	})
	it.Global.Declare("env", ObjectValue(o))
	v, err := it.Run("env.now + env.now;")
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 3 { // 1 + 2: getter evaluated per access
		t.Errorf("getter sum = %v", v.Num())
	}
}

func TestNewFunctionConstructor(t *testing.T) {
	if got := runNum(t, `var f = new Function("a", "b", "return a * b;"); f(6, 7);`); got != 42 {
		t.Errorf("new Function = %v", got)
	}
	if got := runNum(t, `var g = Function("return 5;"); g();`); got != 5 {
		t.Errorf("Function() = %v", got)
	}
}
