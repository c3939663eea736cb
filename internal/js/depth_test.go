package js

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
)

// Unbounded recursion used to run on the Go stack until it overflowed,
// which is a fatal error that ends the whole process. Script calls and
// nested-array conversion now stop at maxDepth with a catchable
// RangeError on both engines.

// depthScripts are run on both engines under a Go stack limit far below
// what an unbounded recursion to the step budget would take.
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
	units := NewUnitCache(8 << 20)
	for i, src := range depthScripts {
		for _, tree := range []bool{true, false} {
			tr := runEngine(src, tree, diffLimits{steps: 2_000_000}, units)
			if tr.errKind != "" || tr.display != want[i] {
				t.Errorf("tree=%v %s\n= %q (err %q), want %q", tree, src, tr.display, tr.errKind, want[i])
			}
		}
		assertBothEngines(t, src, diffLimits{steps: 2_000_000})
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
