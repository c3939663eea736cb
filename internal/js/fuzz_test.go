package js

import (
	"reflect"
	"runtime/debug"
	"testing"
)

// FuzzJSInterp runs arbitrary source through the full lex/parse/compile/run
// stack under a tight step and heap budget, and then again as a hit in the
// same unit cache. Scripts inside hostile PDFs are fed to this engine
// verbatim, so the invariants are containment and determinism: syntax
// errors, thrown values, and budget exhaustion are all fine; panics, stack
// overflows and runaway loops are bugs, and so is a cached rerun whose
// observables differ. The Go stack is capped at 64 MB, a sixteenth of the
// default, so unbounded recursion shows at small inputs.
func FuzzJSInterp(f *testing.F) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	seeds := []string{
		`var x = 1; for (var i = 0; i < 10; i++) x += i; x;`,
		`function f(a){ return a ? f(a-1) : 0; } f(5);`,
		`var s = "A"; try { while(1) s += s; } catch (e) { e.name }`,
		`eval("var q = unescape('%u9090');" + " q.length");`,
		`var o = {a:[1,2,3]}; for (var k in o.a) o[k] = o.a[k]; o.toString();`,
		`switch(3){case 1: break; case 3: var z = "hit"; default: z += "!";} z;`,
		`"\x41B" + (0x10 * .5e1) + [,,].length;`,
		`do { break; } while (true);`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return
		}
		assertCachedRerun(t, src)
	})
}

// assertCachedRerun runs src under fuzzLimits, then again as a hit in the
// same unit cache, and demands identical traces. runEngine also renders
// the completion value without the interpreter.
func assertCachedRerun(t *testing.T, src string) {
	t.Helper()
	units := NewUnitCache(4 << 20)
	first := runEngine(src, fuzzLimits, units)
	if again := runEngine(src, fuzzLimits, units); !reflect.DeepEqual(first, again) {
		t.Fatalf("cache-hit rerun diverged\nscript: %q\nfirst: %s\nagain: %s", src, first.golden(), again.golden())
	}
}

// FuzzForcedExec explores arbitrary source with the forced-execution
// engine under tight budgets. The deep-scan tier feeds hostile scripts to
// ExploreForced verbatim, so the invariants are containment plus state
// hygiene: whatever the script does — crash, throw, exhaust a budget —
// the explorer must not panic, must terminate within its path bounds, and
// must leave the interpreter's forcing state fully unwound so the
// recycled session's next document starts clean. It runs under the same
// 64 MB Go stack as FuzzJSInterp.
func FuzzForcedExec(f *testing.F) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	seeds := []string{
		`if (false) { var a = 1; } else { var a = 2; }`,
		`var d = new Date(); if (d.getFullYear() >= 2015) { var x = "armed"; }`,
		`for (var i = 0; i < 20; i++) { if (i % 3) { i += 1; } }`,
		`var t = true ? (false ? 1 : 2) : 3;`,
		`function g(n){ if (n > 0) { return g(n-1); } return 0; } g(4);`,
		`try { if (false) { null.x; } } catch (e) { var c = e; }`,
		`var s = ""; if (s) { while (true) {} }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 32<<10 {
			return
		}
		it := New()
		it.StepLimit = 100_000
		it.MaxHeap = 8 << 20
		res := it.ExploreForced(ForceConfig{MaxPaths: 8, MaxDecisions: 16, PathSteps: 100_000}, func() error {
			_, err := it.Run(src)
			return err
		})
		if res.Paths < 1 {
			t.Fatalf("explorer reported %d paths; the natural path always runs", res.Paths)
		}
		if it.Force != nil {
			t.Fatal("forcing state leaked out of ExploreForced")
		}
	})
}
