package js

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
)

// Unbounded recursion used to run on the Go stack until it overflowed,
// which is a fatal error that ends the whole process. Script calls and
// nested-array conversion now stop at maxDepth with a catchable
// RangeError.

// depthScripts run under a Go stack limit far below what an unbounded
// recursion to the step budget would take.
var depthScripts = []string{
	`function f(n){return f(n+1)} var r; try{f(0)}catch(e){r=e.name+": "+e.message} r;`,
	`var d=0; function f(n){d=n; return f(n+1)} try{f(0)}catch(e){} d;`,
	`function g(){return g.call(null)} var r; try{g()}catch(e){r=e.name} r + [1,2].join("");`,
	`var a=[]; for(var i=0;i<5000;i++) a=[a]; var r; try{""+a}catch(e){r=e.name} r;`,
	`var a=[]; for(var i=0;i<5000;i++) a=[a]; var r; try{a.join()}catch(e){r=e.name} r;`,
	`var a=1; for(var i=0;i<5000;i++) a=[a]; +a;`,
	`var a=1; for(var i=0;i<100;i++) a=[a]; (+a) + "|" + ("" + a);`,
	`function h(n){return n ? h(n-1) + 1 : 0} h(4000);`,
}

func TestDepthCapThrowsRangeError(t *testing.T) {
	// 64 MB is a sixteenth of the default limit: an uncapped recursion
	// to the step budget overflows it and kills the test binary.
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	want := []string{
		"RangeError: " + errTooDeep,
		fmt.Sprint(maxDepth - 1),
		"RangeError12",
		"RangeError",
		"RangeError",
		"NaN",
		"1|1",
		"4000",
	}
	for i, src := range depthScripts {
		tr := runEngine(src, depthLimits, NewUnitCache(8<<20))
		if tr.errKind != "" || tr.display != want[i] {
			t.Errorf("%s\n= %q (err %q), want %q", src, tr.display, tr.errKind, want[i])
		}
		assertGolden(t, src, depthLimits)
	}
}

var depthLimits = diffLimits{steps: 2_000_000}

// nested returns src with n levels of one nesting construct.
func nested(kind string, n int) string {
	switch kind {
	case "paren":
		return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";"
	case "brace":
		return strings.Repeat("{", n) + strings.Repeat("}", n)
	case "bang":
		return strings.Repeat("!", n) + "1;"
	case "new":
		return "function X(){} " + strings.Repeat("new ", n) + "X;"
	default: // else-if chain
		return "var x = 0; " + strings.Repeat("if (x) {} else ", n) + "{}"
	}
}

// TestParserNestingCap: the parser recurses on the Go stack, so syntactic
// nesting stops at maxDepth with a SyntaxError instead of overflowing it.
// Uncapped, 200,000 nested parentheses (415 bytes as a compressed PDF
// stream) end the process under a 64 MB stack.
func TestParserNestingCap(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	if _, err := New().Run(nested("paren", 200_000)); !errors.Is(err, ErrSyntax) {
		t.Fatalf("200,000 nested parentheses: err = %v, want a SyntaxError", err)
	}
	for _, kind := range []string{"paren", "brace", "bang", "new", "else-if"} {
		if _, err := Parse(nested(kind, maxDepth+1)); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s nested %d deep: err = %v, want a SyntaxError", kind, maxDepth+1, err)
		}
		if _, err := Parse(nested(kind, 4000)); err != nil {
			t.Errorf("%s nested 4000 deep: %v", kind, err)
		}
	}
	if v, err := New().Run(nested("paren", 4000)); err != nil || v.Num() != 1 {
		t.Errorf("4000 nested parentheses = %v (err %v), want 1", ToDisplay(v), err)
	}
}

// TestFlatConcatenationsRun: the cap counts nesting, not length, so the
// long left-deep concatenations that packers emit still parse and run.
func TestFlatConcatenationsRun(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const n = 10_000
	src := `var a = "ab"; var s = a` + strings.Repeat(` + a`, n-1) + `; s.length;`
	if v, err := New().Run(src); err != nil || v.Num() != 2*n {
		t.Fatalf("%d-term concatenation = %v (err %v), want %d", n, ToDisplay(v), err, 2*n)
	}
}

// TestDepthResetsAfterThrow: the call depth unwinds with the RangeError,
// so the same interpreter recurses just as deep on its next run.
func TestDepthResetsAfterThrow(t *testing.T) {
	it := New()
	src := `var d=0; function f(n){d=n; return f(n+1)} try{f(0)}catch(e){} d;`
	for run := 0; run < 3; run++ {
		v, err := it.Run(src)
		if err != nil || v.Num() != maxDepth-1 {
			t.Fatalf("run %d = %v (err %v), want %d", run, ToDisplay(v), err, maxDepth-1)
		}
	}
	if it.depth != 0 {
		t.Fatalf("depth after runs = %d, want 0", it.depth)
	}
}

// TestDisplayOfDeepArray: ToDisplay has no interpreter to throw with, so
// a too-deep array renders as an error instead of overflowing.
func TestDisplayOfDeepArray(t *testing.T) {
	v := NumberValue(1)
	for i := 0; i < maxDepth+10; i++ {
		v = ObjectValue(NewArray(v))
	}
	if got := ToDisplay(v); got != "<error>" {
		t.Fatalf("ToDisplay = %.20q, want <error>", got)
	}
	shallow := ObjectValue(NewArray(ObjectValue(NewArray(StringValue("x")))))
	if got := ToDisplay(shallow); got != "x" {
		t.Fatalf("ToDisplay = %q, want x", got)
	}
}

// TestStringToNumberFollowsES pins ES5 StringToNumber through Number()
// and unary plus.
func TestStringToNumberFollowsES(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	tests := []struct {
		s    string
		want float64
	}{
		{"1e400", inf},
		{"-1e400", -inf},
		{"1e-400", 0},
		{"inf", nan},
		{"-inf", nan},
		{"infinity", nan},
		{"NaN", nan},
		{"Infinity", inf},
		{"+Infinity", inf},
		{"-Infinity", -inf},
		{"  Infinity\n", inf},
		{"Infinityx", nan},
		{"-0x10", nan},
		{"+0x10", nan},
		{"0x10", 16},
		{"0X1f", 31},
		{"0x", nan},
		{"0xg", nan},
		{"0x1p3", nan},
		{"0x1_0", nan},
		{"0xFFFFFFFFFFFFFFFFFF", 4722366482869645213696},
		{"", 0},
		{" \t\n", 0},
		{"12", 12},
		{" 12 ", 12},
		{"\u00a012\ufeff", 12},
		{"\u200012\u3000", 12},
		{"\u008512", nan},
		{"1.", 1},
		{".5", 0.5},
		{".", nan},
		{"-.5e1", -5},
		{"1e", nan},
		{"1e+", nan},
		{"e5", nan},
		{"1E+2", 100},
		{"1_000", nan},
		{"++1", nan},
		{"1 2", nan},
		{"007", 7},
		{"0b101", nan},
	}
	for _, tt := range tests {
		lit := fmt.Sprintf("%q", tt.s)
		for _, src := range []string{"Number(" + lit + ");", "+" + lit + ";"} {
			got := runNum(t, src)
			if !(got == tt.want || math.IsNaN(got) && math.IsNaN(tt.want)) {
				t.Errorf("%s = %v, want %v", src, got, tt.want)
			}
		}
	}
	if got := runStr(t, `1/Number("-0") + "" + 1/Number("-1e-400");`); got != "-Infinity-Infinity" {
		t.Errorf("negative zero strings = %q, want -Infinity-Infinity", got)
	}
	if got := runStr(t, `Number("1e400") + "" + ("0x" == 0) + ("Infinity" == 1/0);`); !strings.HasPrefix(got, "Infinityfalsetrue") {
		t.Errorf("comparisons = %q", got)
	}
}

// TestParseNumberWhitespace: parseInt and parseFloat skip the same ES
// StrWhiteSpace that Number() trims (BOM and NBSP yes, U+0085 no), not
// Go's unicode.IsSpace set.
func TestParseNumberWhitespace(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		src  string
		want float64
	}{
		{`parseFloat("\ufeff1.5")`, 1.5},
		{`parseFloat("\u00a0\u20281.5")`, 1.5},
		{`parseFloat("\u00851.5")`, nan},
		{`parseInt("\ufeff7")`, 7},
		{`parseInt("\u3000\t7")`, 7},
		{`parseInt("\u00857")`, nan},
		{`parseInt(" 12 ")`, 12},
	}
	for _, tt := range tests {
		got := runNum(t, tt.src+";")
		if !(got == tt.want || math.IsNaN(got) && math.IsNaN(tt.want)) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}
