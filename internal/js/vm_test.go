package js

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The engine contract is data. testdata/engine.golden holds, for every
// (script, limits) pair below, the observables the detector and the
// journal replay consume: error class, completion value, step total, heap
// total, the allocation event stream and the large-string hook stream.
// The lines were recorded from the recursive tree-walking evaluator, the
// reference the bytecode VM was built against, and the VM must reproduce
// each one. A deliberate change to the engine's semantics is a reviewed
// edit of the lines it moves: a failing replay prints the whole line the
// VM produced.

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

// runEngine runs src on a fresh interpreter under lim, with units as its
// unit cache, and records what it observed.
func runEngine(src string, lim diffLimits, units *UnitCache) engineTrace {
	it := New()
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

const goldenPath = "testdata/engine.golden"

// goldenKey names a (script, limits) pair: an FNV-64a hash of both.
func goldenKey(src string, lim diffLimits) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d\x00%s", lim.steps, lim.heap, lim.largeUnit, src)
	return fmt.Sprintf("%016x", h.Sum64())
}

// golden renders a trace as the tab-separated fields of a golden line
// (the line minus its key). The two event streams are each a count and an
// FNV-64a digest: of every alloc delta, and of every large string's size,
// content digest and marker flag.
func (tr engineTrace) golden() string {
	allocs := fnv.New64a()
	for _, d := range tr.allocs {
		binary.Write(allocs, binary.LittleEndian, d)
	}
	large := fnv.New64a()
	for i, n := range tr.large {
		binary.Write(large, binary.LittleEndian, int64(n))
		binary.Write(large, binary.LittleEndian, tr.seen[i].sum)
		binary.Write(large, binary.LittleEndian, tr.seen[i].marker)
	}
	return strings.Join([]string{
		"err=" + strconv.Quote(tr.errKind),
		"val=" + strconv.Quote(tr.display),
		fmt.Sprintf("steps=%d", tr.steps),
		fmt.Sprintf("heap=%d", tr.heap),
		fmt.Sprintf("alloc=%d:%016x", len(tr.allocs), allocs.Sum64()),
		fmt.Sprintf("large=%d:%016x", len(tr.large), large.Sum64()),
	}, "\t")
}

var (
	goldenOnce  sync.Once
	goldenLines map[string]string // key -> fields
	goldenKeys  []string          // in file order
	goldenErr   error
)

// loadGolden reads engine.golden: one "key<TAB>fields" line per entry;
// blank lines and lines starting with # are comments.
func loadGolden(t testing.TB) map[string]string {
	t.Helper()
	goldenOnce.Do(func() {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		goldenLines = make(map[string]string)
		for n, line := range strings.Split(string(data), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			key, fields, ok := strings.Cut(line, "\t")
			if !ok {
				goldenErr = fmt.Errorf("%s:%d: no fields", goldenPath, n+1)
				return
			}
			if _, dup := goldenLines[key]; dup {
				goldenErr = fmt.Errorf("%s:%d: duplicate key %s", goldenPath, n+1, key)
				return
			}
			goldenLines[key] = fields
			goldenKeys = append(goldenKeys, key)
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenLines
}

// goldenField returns one named field of a golden line's fields.
func goldenField(fields, name string) string {
	for _, f := range strings.Split(fields, "\t") {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			return v
		}
	}
	return ""
}

// assertGolden replays src under lim on the VM three times — with a fresh
// unit cache, as a hit in that cache, and with a second fresh cache — and
// demands the recorded line from each run. Recycled sessions rerun cached
// units, and journal replay depends on their determinism.
func assertGolden(t *testing.T, src string, lim diffLimits) {
	t.Helper()
	key := goldenKey(src, lim)
	want, ok := loadGolden(t)[key]
	if !ok {
		t.Fatalf("%s has no line %s\nscript: %q\nvm: %s\t%s", goldenPath, key, src, key, runEngine(src, lim, NewUnitCache(8<<20)).golden())
	}
	units := NewUnitCache(8 << 20)
	for run, uc := range []*UnitCache{units, units, NewUnitCache(8 << 20)} {
		if got := runEngine(src, lim, uc).golden(); got != want {
			t.Fatalf("VM run %d of 3: %s\nscript: %q\nwant: %s\t%s\ngot:  %s\t%s", run+1, goldenDiff(want, got), src, key, want, key, got)
		}
	}
	if st := units.Stats(); st.Entries > 0 && st.Hits == 0 {
		t.Fatalf("second VM run did not hit the unit cache\nscript: %q", src)
	}
}

// goldenDiff names the observables that differ between two field lists.
func goldenDiff(want, got string) string {
	w, g := strings.Split(want, "\t"), strings.Split(got, "\t")
	var names []string
	for i := range g {
		if i >= len(w) || w[i] != g[i] {
			name, _, _ := strings.Cut(g[i], "=")
			names = append(names, name)
		}
	}
	return strings.Join(names, ", ") + " differ"
}

// goldenInput is one (script, limits) pair of the golden file.
type goldenInput struct {
	src string
	lim diffLimits
}

// goldenInputs lists every pair the engine tests replay, in the order the
// golden file records them; sweepSteps is the reference step total of
// budgetSweepScript, whose every cutoff is an entry.
func goldenInputs(sweepSteps int64) []goldenInput {
	var in []goldenInput
	add := func(lim diffLimits, srcs ...string) {
		for _, s := range srcs {
			in = append(in, goldenInput{s, lim})
		}
	}
	add(diffLimits{}, differentialScripts...)
	add(attackLimits, attackScripts...)
	add(diffLimits{}, budgetSweepScript)
	for limit := int64(1); limit <= sweepSteps+1; limit++ {
		add(diffLimits{steps: limit}, budgetSweepScript)
	}
	add(depthLimits, depthScripts...)
	add(diffLimits{}, indexKeyScripts()...)
	add(diffLimits{}, cyclicArrayScripts...)
	add(fuzzLimits, differentialScripts...)
	add(fuzzLimits, fuzzSeedCorpus("FuzzJSInterp")...)
	add(ropeLimits, fuzzSeedCorpus("FuzzRopeVsFlat")...)
	return in
}

// sweepSteps reads the reference step total of budgetSweepScript.
func sweepSteps(t testing.TB) int64 {
	t.Helper()
	fields, ok := loadGolden(t)[goldenKey(budgetSweepScript, diffLimits{})]
	if !ok {
		t.Fatalf("%s has no line for the budget sweep script", goldenPath)
	}
	n, err := strconv.ParseInt(goldenField(fields, "steps"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineGoldenComplete: the golden file holds exactly one line per
// replayed pair, so no line goes stale and no replay goes unrecorded.
func TestEngineGoldenComplete(t *testing.T) {
	lines := loadGolden(t)
	want := make(map[string]bool)
	for _, in := range goldenInputs(sweepSteps(t)) {
		key := goldenKey(in.src, in.lim)
		want[key] = true
		if _, ok := lines[key]; !ok {
			t.Errorf("no line %s for %q under %+v", key, in.src, in.lim)
		}
	}
	for _, key := range goldenKeys {
		if !want[key] {
			t.Errorf("line %s replays no input", key)
		}
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
			assertGolden(t, src, diffLimits{})
		})
	}
}

// attackScripts mirror the malicious-corpus payload shapes (heap spray,
// shellcode staging, eval unpacking) including the hook streams they are
// detected by.
var attackScripts = []string{
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

var attackLimits = diffLimits{steps: 300_000, heap: 4 << 20, largeUnit: 2048}

func TestVMDifferentialAttackPatterns(t *testing.T) {
	for i, src := range attackScripts {
		t.Run(fmt.Sprintf("attack_%02d", i), func(t *testing.T) {
			assertGolden(t, src, attackLimits)
		})
	}
}

// budgetSweepScript runs under every step limit up to its own step total,
// so exhaustion lands inside every kind of folded charge region.
const budgetSweepScript = `var total = 0;
	function work(n){
		var acc = "";
		for (var i = 0; i < n; i++) {
			try { acc += i; if (i % 3 === 0) continue; } finally { total++; }
		}
		return acc.length;
	}
	for (var r = 0; r < 6; r++) total += work(r + 4);
	total;`

// TestVMBudgetExhaustionParity: the step counter and error at each cutoff
// are the reference's.
func TestVMBudgetExhaustionParity(t *testing.T) {
	assertGolden(t, budgetSweepScript, diffLimits{})
	for limit := int64(1); limit <= sweepSteps(t)+1; limit++ {
		assertGolden(t, budgetSweepScript, diffLimits{steps: limit})
	}
}

// fuzzLimits and ropeLimits are the budgets of the fuzz targets.
var (
	fuzzLimits = diffLimits{steps: 200_000, heap: 8 << 20}
	ropeLimits = diffLimits{steps: 200_000, heap: 8 << 20, largeUnit: 64}
)

// FuzzCompileVsTreeWalk checks the VM against the tree-walker's recorded
// outputs: each seed (differentialScripts and the committed FuzzJSInterp
// corpus) replays its golden line under fuzzLimits. A new input has no
// recorded line, so it gets FuzzJSInterp's cache-hit check only; `make
// fuzz` fuzzes FuzzJSInterp instead of this target.
func FuzzCompileVsTreeWalk(f *testing.F) {
	for _, s := range differentialScripts {
		f.Add(s)
	}
	for _, s := range fuzzSeedCorpus("FuzzJSInterp") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return
		}
		if _, ok := loadGolden(t)[goldenKey(src, fuzzLimits)]; ok {
			assertGolden(t, src, fuzzLimits)
			return
		}
		assertCachedRerun(t, src)
	})
}

// fuzzSeedCorpus reads the committed seed corpus of a fuzz target (go test
// fuzz v1 files hold one quoted string each), in file-name order.
func fuzzSeedCorpus(target string) []string {
	dir := filepath.Join("testdata", "fuzz", target)
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
