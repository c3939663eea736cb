package js

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The differential harness runs every script through both engines — the
// recursive tree-walker (treeWalk=true) and the bytecode VM — and demands
// bit-identical observables: completion value, error class, step totals,
// heap totals, the full allocation event stream, and the large-string hook
// stream. These observables are exactly what the detector's feature vectors
// and the journal replay consume, so equality here is the contract that
// compiling does not move the needle on detection.

type engineTrace struct {
	display string
	errKind string
	steps   int64
	heap    int64
	allocs  []int64
	large   []int
	// seen digests each large string as the observer received it — its
	// content hash and whether it carries ropeTestMarker — read without
	// flattening, so a roped run is observed in its unflattened form.
	seen []largeDigest
}

type largeDigest struct {
	sum    uint64
	marker bool
}

// ropeTestMarker stands in for the reader's payload marker.
const ropeTestMarker = "PAYLOAD:"

func digestLarge(v Value) largeDigest {
	h := fnv.New64a()
	if v.rope != nil {
		v.rope.walk(false, func(s string) bool {
			h.Write([]byte(s))
			return true
		})
	} else {
		h.Write([]byte(v.str))
	}
	return largeDigest{sum: h.Sum64(), marker: v.Contains(ropeTestMarker)}
}

type diffLimits struct {
	steps     int64
	heap      int64
	largeUnit int
}

func runEngine(src string, treeWalk bool, lim diffLimits, units *UnitCache) engineTrace {
	it := New()
	it.treeWalk = treeWalk
	it.Units = units
	if lim.steps != 0 {
		it.StepLimit = lim.steps
	} else {
		it.StepLimit = 500_000
	}
	if lim.heap != 0 {
		it.MaxHeap = lim.heap
	} else {
		it.MaxHeap = 16 << 20
	}
	if lim.largeUnit != 0 {
		it.LargeStringUnits = lim.largeUnit
	}
	var tr engineTrace
	it.OnAlloc = func(delta int64) { tr.allocs = append(tr.allocs, delta) }
	it.OnLargeString = func(v Value) {
		tr.large = append(tr.large, v.byteLen())
		tr.seen = append(tr.seen, digestLarge(v))
	}
	v, err := it.Run(src)
	tr.steps = it.Steps()
	tr.heap = it.HeapBytes
	tr.errKind = classifyErr(err)
	if err == nil {
		tr.display = ToDisplay(v)
	}
	return tr
}

func classifyErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrHeapLimit):
		return "heap"
	}
	var fatal *FatalError
	if errors.As(err, &fatal) {
		return "fatal:" + fatal.Error()
	}
	var thrown *ThrowError
	if errors.As(err, &thrown) {
		return "throw:" + ToDisplay(thrown.Value)
	}
	return "err:" + err.Error()
}

func diffTraces(t *testing.T, src string, tree, vm engineTrace) {
	t.Helper()
	if tree.errKind != vm.errKind {
		t.Fatalf("error divergence\nscript: %s\ntree: %q\nvm:   %q", src, tree.errKind, vm.errKind)
	}
	if tree.display != vm.display {
		t.Fatalf("value divergence\nscript: %s\ntree: %q\nvm:   %q", src, tree.display, vm.display)
	}
	if tree.steps != vm.steps {
		t.Fatalf("step divergence\nscript: %s\ntree: %d\nvm:   %d", src, tree.steps, vm.steps)
	}
	if tree.heap != vm.heap {
		t.Fatalf("heap divergence\nscript: %s\ntree: %d\nvm:   %d", src, tree.heap, vm.heap)
	}
	if len(tree.allocs) != len(vm.allocs) {
		t.Fatalf("alloc stream length divergence\nscript: %s\ntree: %d events\nvm:   %d events", src, len(tree.allocs), len(vm.allocs))
	}
	for i := range tree.allocs {
		if tree.allocs[i] != vm.allocs[i] {
			t.Fatalf("alloc stream divergence at %d\nscript: %s\ntree: %d\nvm:   %d", i, src, tree.allocs[i], vm.allocs[i])
		}
	}
	if len(tree.large) != len(vm.large) {
		t.Fatalf("large-string stream divergence\nscript: %s\ntree: %d events\nvm:   %d events", src, len(tree.large), len(vm.large))
	}
	for i := range tree.large {
		if tree.large[i] != vm.large[i] {
			t.Fatalf("large-string size divergence at %d\nscript: %s", i, src)
		}
	}
}

func assertBothEngines(t *testing.T, src string, lim diffLimits) {
	t.Helper()
	units := NewUnitCache(8 << 20)
	tree := runEngine(src, true, lim, units)
	vm := runEngine(src, false, lim, units)
	diffTraces(t, src, tree, vm)
	// A cached re-execution must be deterministic: recycled sessions rerun
	// the same compiled unit, and journal replay depends on it.
	vm2 := runEngine(src, false, lim, units)
	diffTraces(t, src, tree, vm2)
	if st := units.Stats(); st.Entries > 0 && st.Hits == 0 {
		t.Fatalf("second VM run did not hit the unit cache\nscript: %s", src)
	}
}

// differentialScripts covers every statement/expression form and the
// control-flow corners where the compiler's layout differs most from the
// recursive evaluator.
var differentialScripts = []string{
	// Literals, folding, arithmetic.
	`1 + 2 * 3 - 4 / 2;`,
	`"a" + "b" + 1 + null + undefined + true;`,
	`0x10 | 3; 7 & ~2; 1 << 8 >> 2 >>> 1; -"12" + +"3.5";`,
	`typeof 1 + typeof "s" + typeof {} + typeof undefined + typeof f;`,
	`void 0 === undefined;`,
	`!0 + !!"x";`,
	// Variables, hoisting, implicit globals.
	`var a = 1, b, c = a + 1; b = c; implicit = b * 2; implicit;`,
	`x; var x = 5; x;`,
	`function d(){ return v; } var v = 3; d();`,
	`var f2 = 1; function f2(){} typeof f2;`,
	// Strings and work charging.
	`var s = "hello world"; s.length + s.indexOf("world") + s.charAt(4);`,
	`var t = ""; for (var i = 0; i < 50; i++) t += "abc"; t.length;`,
	`"abc" < "abd"; "zz" == "zz"; "a" === "a";`,
	// Arrays and objects.
	`var arr = [1,,2,3]; arr.length + arr.join("-");`,
	`var o = {a: 1, b: "two"}; o.c = [3]; o.a + o.b + o.c[0];`,
	`var ks = ""; for (var k in {x:1, y:2, z:3}) ks += k; ks;`,
	`var a2 = [9,8,7]; delete a2[1]; a2[1] + "" + a2.length;`,
	`delete nothere;`,
	// Member writes, updates, compound assignment.
	`var m = {n: 1}; m.n += 4; m["n"] *= 2; m.n++; --m.n; m.n;`,
	`var u = 5; u++ + ++u + u-- + --u;`,
	`var cnt = 0; function idx(){ cnt++; return 0; } var aa = [10]; aa[idx()] += 5; aa[0] + "@" + cnt;`,
	// Functions, closures, recursion, arguments.
	`function add(p, q){ return p + q; } add(1, 2) + add(1);`,
	`function outer(){ var n = 0; return function(){ return ++n; }; } var inc = outer(); inc(); inc(); inc();`,
	`function fib(n){ return n < 2 ? n : fib(n-1) + fib(n-2); } fib(10);`,
	`function va(){ return arguments.length + "" + arguments[1]; } va(1, "two", 3);`,
	`var named = function me(n){ return n ? me(n-1) + 1 : 0; }; named(4);`,
	`(function(){ return this === undefined ? "no-this" : "this"; })();`,
	// Control flow.
	`var r = ""; for (var i = 0; i < 5; i++){ if (i === 2) continue; if (i === 4) break; r += i; } r;`,
	`var w = 0; while (w < 10) { w += 3; } w;`,
	`var dw = 0; do { dw++; } while (dw < 4); dw;`,
	`var sw = ""; switch (2) { case 1: sw += "a"; case 2: sw += "b"; case 3: sw += "c"; break; default: sw += "d"; } sw;`,
	`var sd = ""; switch (99) { case 1: sd = "one"; break; default: sd = "def"; } sd;`,
	`var sn = "start"; switch (99) { case 1: sn = "one"; break; } sn;`,
	`var fi = ""; for (var i = 0; i < 3; i++){ for (var j in [1,2]) { if (j === "1") break; fi += i + "" + j; } } fi;`,
	// try/catch/finally in all abrupt-completion combinations.
	`var log = ""; try { log += "t"; throw {name:"E", message:"boom"}; } catch (e) { log += "c" + e.name; } finally { log += "f"; } log;`,
	`var l2 = ""; try { l2 += "t"; } finally { l2 += "f"; } l2;`,
	`function tf(){ try { return "try"; } finally { return "finally"; } } tf();`,
	`function tb(){ var o = ""; for (var i = 0; i < 3; i++){ try { if (i === 1) break; o += i; } finally { o += "f"; } } return o; } tb();`,
	`function tc(){ var o = ""; for (var i = 0; i < 3; i++){ try { if (i === 1) continue; o += i; } finally { o += "f"; } } return o; } tc();`,
	`var caught = ""; try { try { throw "inner"; } finally { caught += "f1"; } } catch (e) { caught += "c" + e; } caught;`,
	`var ff = ""; try { throw "a"; } catch (e) { try { throw "b"; } catch (e2) { ff = e + e2; } } ff;`,
	`function deep(){ try { try { return 1; } finally { ff2 += "i"; } } finally { ff2 += "o"; } } var ff2 = ""; deep() + ff2;`,
	// Uncaught abrupt completions.
	`throw "plain";`,
	`undefinedName + 1;`,
	`null.prop;`,
	`var nf = 42; nf();`,
	`unknownFn();`,
	`var om = {}; om.missing();`,
	`(void 0)["x"] = 1;`,
	// eval and Function constructor (nested compiled units).
	`var ev = eval("1 + 2"); ev;`,
	`var q = 10; eval("q + 5");`,
	`eval("var leaked = 7;"); leaked;`,
	`function scoped(){ var inner = "hid"; return eval("inner"); } scoped();`,
	`var F = new Function("a", "b", "return a * b;"); F(6, 7);`,
	`eval("syntax error here(");`,
	`eval(42);`,
	// new expressions.
	`function Ctor(v){ this.v = v; } var c1 = new Ctor(9); c1.v + "" + (c1.constructor === Ctor);`,
	`function RetObj(){ return {v: "override"}; } new RetObj().v;`,
	`new Array(1,2,3).length;`,
	`var no = 3; try { new no(); } catch (e) { e.message }`,
	// Logical / conditional / sequence.
	`var lz = 0; function bump(){ lz++; return true; } false && bump(); true || bump(); lz;`,
	`(1, 2, 3);`,
	`null == undefined; null === undefined; NaN == NaN; "1" == 1;`,
	`1 ? "yes" : "no";`,
	// instanceof / in.
	`function K(){} var ki = new K(); (ki instanceof K) + " " + ("v" in {v:1}) + " " + (0 in [7]);`,
	// String methods on the hot attack paths.
	`unescape("%u9090%u9090").length;`,
	`var sp = "a,b,c".split(","); sp.length + sp[2];`,
	`"payload".replace("pay", "un") + "substr".substring(0, 3);`,
	`String.fromCharCode(65, 66, 67);`,
	// Number constants and formatting: 0 and -0 are two constants.
	`var a = -0; var b = 0; 1/b;`,
	`var a = 0; var b = -0; 1/b;`,
	"u=0,-\r0",
	`[-0, 1234567.5, 0.00001, 1e-7, 1.5e300, 1e21, 0.1 + 0.2] + "";`,
	// StringToNumber: ES grammar, not strconv's.
	`[Number("1e400"), Number("inf"), Number("-0x10"), Number("Infinity"), Number("-Infinity"), Number("0x"), +" 0x1F ", +"1e-400", +".5e1", +"1_0"] + "";`,
	`var sn = ["", " ", "12px", "0x10", "-Infinity", "1e"]; var so = ""; for (var i = 0; i < sn.length; i++) so += (sn[i] * 1) + ","; so;`,
	// Dense and sparse arrays: number keys, string keys, holes, deletes.
	`var dn = []; dn[-0] = "z"; dn[0] + dn["0"] + dn.length;`,
	`var sp2 = []; sp2[3] = "c"; sp2[1] = "a"; sp2[0] = "x"; sp2[2] = "b"; var ko = ""; for (var k in sp2) ko += k; ko + sp2.join("") + sp2.length;`,
	`var dl = [1,2,3,4]; delete dl[1]; dl.push(5); dl[1] = 9; var kd = ""; for (var k in dl) kd += k; kd + "|" + dl.join();`,
	`var tl = [1,2,3]; tl.length = 1; tl.push(7); tl.length = 4; tl.x = 1; tl["01"] = 2; var kt = ""; for (var k in tl) kt += k + ","; kt + tl.join();`,
	`var na = new Array(3); na[1] = "m"; na[1.5] = "f"; na[1e9] = "big"; na.length + na.join("-") + na[1.5] + na[1e9];`,
	`var sx = "abc"; sx[0] + sx[2] + sx[1.5] + sx[-0] + sx[9];`,
	`var ob = {}; ob[2] = "b"; ob[1] = "a"; ob["x"] = "c"; var kb = ""; for (var k in ob) kb += k; kb;`,
}

func TestVMDifferential(t *testing.T) {
	for i, src := range differentialScripts {
		t.Run(fmt.Sprintf("script_%02d", i), func(t *testing.T) {
			assertBothEngines(t, src, diffLimits{})
		})
	}
}

// TestVMDifferentialAttackPatterns mirrors the malicious-corpus payload
// shapes (heap spray, shellcode staging, eval unpacking) including the hook
// streams they are detected by.
func TestVMDifferentialAttackPatterns(t *testing.T) {
	scripts := []string{
		// Heap spray by doubling: exercises OnAlloc and OnLargeString.
		`var shellcode = unescape("%u9090%u9090%u4141");
		 var block = shellcode;
		 while (block.length < 4096) block += block;
		 var spray = [];
		 for (var i = 0; i < 8; i++) spray[i] = block + i;
		 spray.length;`,
		// Staged eval unpacking, twice so the unit cache is exercised inside
		// one run.
		`var stage = "var p = 0; for (var i = 0; i < 10; i++) p += i; p;";
		 eval(stage) + eval(stage);`,
		// String scan loops: work() charging parity.
		`var hay = "x"; while (hay.length < 2048) hay += hay;
		 var hits = 0;
		 for (var i = 0; i < 16; i++) if (hay.indexOf("y") === -1) hits++;
		 hits;`,
		// Budget bomb (must die with identical step counters).
		`var n = 0; while (true) n++;`,
		// Heap bomb (identical heap counters and alloc streams).
		`var b = "AAAA"; try { while (true) b += b; } catch (e) { e.name }`,
	}
	for i, src := range scripts {
		t.Run(fmt.Sprintf("attack_%02d", i), func(t *testing.T) {
			assertBothEngines(t, src, diffLimits{steps: 300_000, heap: 4 << 20, largeUnit: 2048})
		})
	}
}

// TestVMBudgetExhaustionParity sweeps the step limit across a script's full
// range so exhaustion lands inside every kind of folded charge region; the
// reported step counter and error must match at each cutoff.
func TestVMBudgetExhaustionParity(t *testing.T) {
	src := `var total = 0;
	function work(n){
		var acc = "";
		for (var i = 0; i < n; i++) {
			try { acc += i; if (i % 3 === 0) continue; } finally { total++; }
		}
		return acc.length;
	}
	for (var r = 0; r < 6; r++) total += work(r + 4);
	total;`
	full := runEngine(src, true, diffLimits{}, NewUnitCache(1<<20))
	if full.errKind != "" {
		t.Fatalf("reference run failed: %s", full.errKind)
	}
	units := NewUnitCache(1 << 20)
	for limit := int64(1); limit <= full.steps+1; limit++ {
		lim := diffLimits{steps: limit}
		tree := runEngine(src, true, lim, units)
		vm := runEngine(src, false, lim, units)
		if tree.errKind != vm.errKind || tree.steps != vm.steps {
			t.Fatalf("limit %d: tree(err=%q steps=%d) vm(err=%q steps=%d)",
				limit, tree.errKind, tree.steps, vm.errKind, vm.steps)
		}
	}
}

// FuzzCompileVsTreeWalk is the differential fuzz target: any parseable
// input must behave identically on both engines.
func FuzzCompileVsTreeWalk(f *testing.F) {
	for _, s := range differentialScripts {
		f.Add(s)
	}
	for _, s := range fuzzSeedCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return
		}
		lim := diffLimits{steps: 200_000, heap: 8 << 20}
		units := NewUnitCache(4 << 20)
		tree := runEngine(src, true, lim, units)
		vm := runEngine(src, false, lim, units)
		diffTraces(t, src, tree, vm)
	})
}

// fuzzSeedCorpus re-seeds the differential target with the committed
// FuzzJSInterp corpus (go test fuzz v1 files hold one quoted string each).
func fuzzSeedCorpus(f *testing.F) []string {
	f.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzJSInterp")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err == nil {
				out = append(out, s)
			}
		}
	}
	return out
}
