package instrument

import (
	"fmt"
	"reflect"
	"testing"

	"pdfshield/internal/js"
	"pdfshield/internal/reader"
)

// testWrap stands in for the monitor builder: it marks the code it wraps.
func testWrap(inner string) string { return "W(" + inner + ")" }

// FuzzStagedRewrite checks the rewriter on arbitrary source against the
// engine's parse of its input and output: it never panics, leaves a
// source without a staged call unchanged, and changes nothing but the
// code arguments, each of which the engine decodes to the wrapper around
// the rewrite of its own decoding of the original.
func FuzzStagedRewrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) { checkStaged(t, src, 0) })
}

// checkStaged rewrites src at depth, checks the result and returns it.
// The staged calls are found here by walking the whole parse tree, not
// through the parser's call list the rewriter reads.
func checkStaged(t *testing.T, src string, depth int) (string, int) {
	t.Helper()
	out, n := rewriteStaged(src, depth, testWrap)
	prog, err := js.Parse(src)
	if err != nil || depth > maxStagedDepth {
		if out != src || n != 0 {
			t.Fatalf("depth %d, parse error %v: %d rewrites changed %q to %q", depth, err, n, src, out)
		}
		return out, n
	}
	nodes, code := parseShape(prog)
	if len(code) == 0 && out != src {
		t.Fatalf("no staged call, but %d rewrites changed %q to %q", n, src, out)
	}
	got, err := js.Parse(out)
	if err != nil {
		t.Fatalf("rewritten source %q does not parse: %v", out, err)
	}
	gotNodes, gotCode := parseShape(got)
	if !reflect.DeepEqual(gotNodes, nodes) || len(gotCode) != len(code) {
		t.Fatalf("rewrite changed more than the code arguments:\n%q\nparses to\n%v\n%q\nparses to\n%v", src, nodes, out, gotNodes)
	}
	want := 0
	for i, orig := range code {
		inner, innerN := checkStaged(t, orig, depth+1)
		if gotCode[i] != testWrap(inner) {
			t.Fatalf("code argument %d decodes to %q, want %q", i, gotCode[i], testWrap(inner))
		}
		want += 1 + innerN
	}
	if n != want {
		t.Fatalf("rewriteStaged counted %d rewrites, want %d", n, want)
	}
	return out, n
}

// parseShape renders a parse tree as its node types and leaf values in
// tree order, without positions or source text, which a rewrite moves.
// The code argument of each staged call is a single marker in the shape;
// code lists those arguments' string values in the same order.
func parseShape(prog *js.Program) (shape, code []string) {
	staged := map[*js.StringLit]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			switch n := v.Addr().Interface().(type) {
			case *js.CallExpr:
				markCodeArg(staged, n.Callee, n.Args)
			case *js.NewExpr:
				markCodeArg(staged, n.Callee, n.Args)
			case *js.StringLit:
				if staged[n] {
					shape = append(shape, "<code>")
					code = append(code, n.Value)
					return
				}
			}
			shape = append(shape, v.Type().Name())
			for i := 0; i < v.NumField(); i++ {
				switch v.Type().Field(i).Name {
				case "base", "End", "Source", "Calls":
					continue
				}
				walk(v.Field(i))
			}
		default:
			shape = append(shape, fmt.Sprint(v.Interface()))
		}
	}
	walk(reflect.ValueOf(prog))
	return shape, code
}

// markCodeArg marks the argument a call runs as code when the call names
// a staged method and that argument is a string literal.
func markCodeArg(staged map[*js.StringLit]bool, callee js.Expr, args []js.Expr) {
	var name string
	switch c := callee.(type) {
	case *js.Ident:
		name = c.Name
	case *js.MemberExpr:
		if p, ok := c.Property.(*js.StringLit); ok {
			name = p.Value
		}
	}
	if k, ok := reader.CodeArg(name, len(args)); ok {
		if lit, ok := args[k].(*js.StringLit); ok {
			staged[lit] = true
		}
	}
}
