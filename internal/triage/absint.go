package triage

import (
	"strings"

	"pdfshield/internal/js"
	"pdfshield/internal/reader"
)

// The abstract interpreter: a flow-insensitive over-approximation of each
// extracted script in the spirit of SAFE-PDF. Values carry a small tag
// lattice (derived-from-unescape) plus, where statically resolvable, a
// concrete string constant — enough to see through the two obfuscation
// idioms the corpus (and the wild) actually use: eval of a string literal
// and eval of concatenated literal halves. Every branch of every
// conditional is walked (union semantics, no path pruning), so anything
// reachable on any path is reachable to the analysis; loops are walked
// once and the whole program is walked twice, which reaches the tag
// fixpoint for the monotone lattice used here (tags only ever grow).
//
// The output is two sets: weighted suspicion signals (heap-spray growth
// shapes, trigger-API families, staging rewrites) and fail-safe
// uncertainty markers (parse failures, unknown APIs, dynamic eval,
// budget blowups). Signals convict at the configured threshold;
// uncertainty markers only ever push toward the dynamic tier.

// Signal names and weights. A distinct signal contributes its weight
// once; the malicious threshold (default 8) equals the weight of the
// canonical spray shape (unescape + doubling-to-heap-size), so spray-only
// samples (Flash/CoolType carriers whose JS never calls a trigger API)
// still convict.
const (
	// SignalSprayGrow: an unescape-derived string doubled to heap-spray
	// size (>= sprayGrowUnits) in a self-append loop.
	SignalSprayGrow = "spray-grow"
	// SignalUnescapeGrow: an unescape-derived string doubled below spray
	// size (the trigger-argument grooming idiom).
	SignalUnescapeGrow = "unescape-grow"
	// SignalLargeGrow: a non-unescape string doubled to spray size.
	SignalLargeGrow = "large-grow"
	// SignalUnescape: any unescape() call.
	SignalUnescape = "unescape"
	// SignalEval: any eval() call (resolvable or not).
	SignalEval = "eval"
	// SignalStagedScript / SignalStagedTimer: a script-adding call
	// (addScript, setAction, setPageAction) / an app.setTimeOut or
	// setInterval call (the staged and delayed executions of §IV).
	SignalStagedScript = "staged-script"
	SignalStagedTimer  = "staged-timer"
	// SignalPrintfWidth: util.printf with a literal field width large
	// enough to smash the stack (CVE-2008-2992 shape).
	SignalPrintfWidth = "printf-width"
)

// sprayGrowUnits is the doubling-limit boundary between argument grooming
// and heap spraying (64 Ki UTF-16 units; real sprays double to hundreds
// of KiB, benign code never self-appends at all).
const sprayGrowUnits = 65536

// printfWidthLimit is the literal field width at which util.printf is
// treated as an exploit attempt rather than formatting.
const printfWidthLimit = 1024

func signalWeight(sig string) int {
	switch sig {
	case SignalSprayGrow:
		return 6
	case SignalLargeGrow:
		return 3
	case SignalUnescapeGrow, SignalUnescape:
		return 2
	case SignalEval:
		return 1
	case SignalStagedScript, SignalStagedTimer:
		return 3
	case SignalPrintfWidth:
		return 5
	}
	if strings.HasPrefix(sig, "api-") {
		// Table III trigger-API families (getIcon, newPlayer, ...).
		return 5
	}
	return 0
}

// triggerAPIs are the vulnerable / exploit-delivery APIs of the corpus
// CVE families (keyed by the callee's static name, reader.CalleeName).
var triggerAPIs = map[string]bool{
	"getIcon":              true,
	"newPlayer":            true,
	"customDictionaryOpen": true,
	"printSeps":            true,
	"getAnnots":            true,
	"exportDataObject":     true,
	"getURL":               true,
	"launchURL":            true,
}

// benignAPIs is the allowlist of call targets (static callee names)
// the benign population uses: AcroForm field plumbing, formatting,
// alerts, and plain string/array/number work. A call outside this list
// (and outside the special cases handled inline) marks the script
// uncertain — fail-safe, not a conviction.
var benignAPIs = map[string]bool{
	// Acrobat benign surface.
	"getField": true, "printd": true, "alert": true, "beep": true,
	"calculateNow": true, "syncAnnotScan": true,
	// String/array/number builtins.
	"split": true, "join": true, "substring": true, "substr": true,
	"charAt": true, "charCodeAt": true, "indexOf": true,
	"lastIndexOf": true, "toLowerCase": true, "toUpperCase": true,
	"toString": true, "toFixed": true, "push": true, "pop": true,
	"shift": true, "slice": true, "concat": true, "replace": true,
	"match": true, "floor": true, "ceil": true, "round": true,
	"abs": true, "min": true, "max": true,
	"parseInt": true, "parseFloat": true, "isNaN": true,
	"String": true, "Number": true, "Boolean": true,
}

// benignCtors are constructor names allowed in new-expressions.
var benignCtors = map[string]bool{
	"Array": true, "Object": true, "String": true, "Number": true,
	"Boolean": true, "Date": true, "RegExp": true, "Error": true,
}

// maxEvalDepth bounds recursion through resolvable eval/staging layers.
const maxEvalDepth = 4

// tagSet is the abstract value lattice.
type tagSet uint8

const tagUnescape tagSet = 1 << iota

// absValue is one abstract value: its tags plus a concrete string when
// the expression is a compile-time constant.
type absValue struct {
	tags   tagSet
	str    string
	hasStr bool
}

// varInfo is one variable's abstract state.
type varInfo struct {
	absValue
	fn bool // declared as a function in this script
}

// analysis accumulates signals and uncertainty across every script of one
// document.
type analysis struct {
	cfg       Config
	nodes     int
	exhausted bool
	signals   map[string]bool
	uncertain map[string]bool

	vars  map[string]*varInfo // current script's environment
	depth int                 // eval/staging recursion depth
}

func newAnalysis(cfg Config) *analysis {
	return &analysis{
		cfg:       cfg,
		signals:   map[string]bool{},
		uncertain: map[string]bool{},
	}
}

func (an *analysis) score() int {
	total := 0
	for sig := range an.signals {
		total += signalWeight(sig)
	}
	return total
}

func (an *analysis) signal(sig string) { an.signals[sig] = true }
func (an *analysis) unsure(why string) { an.uncertain[why] = true }
func (an *analysis) varRef(name string) *varInfo {
	vi, ok := an.vars[name]
	if !ok {
		vi = &varInfo{}
		an.vars[name] = vi
	}
	return vi
}

// charge spends node budget; once exhausted the walk stops producing
// conclusions and the document is marked uncertain (widening blowup).
func (an *analysis) charge() bool {
	an.nodes++
	if an.nodes > an.cfg.NodeBudget {
		if !an.exhausted {
			an.exhausted = true
			an.unsure("node-budget")
		}
		return false
	}
	return true
}

// analyzeScript runs the abstract interpreter over one script source.
// Any panic out of the parser or walker is contained as an uncertainty
// marker: triage must never be able to take the pipeline down, and a
// document that breaks the analyzer has earned the dynamic tier.
func (an *analysis) analyzeScript(src string) {
	defer func() {
		if r := recover(); r != nil {
			an.unsure("analysis-panic")
		}
	}()
	if src == "" {
		an.unsure("empty-script")
		return
	}
	if len(src) > DefaultMaxScriptBytes {
		an.unsure("script-too-large")
		return
	}
	prog, err := js.Parse(src)
	if err != nil {
		an.unsure("js-parse-error")
		return
	}
	outer := an.vars
	an.vars = map[string]*varInfo{}
	// Two passes reach the tag fixpoint (tags are monotone) and let calls
	// resolve functions declared later in the source.
	for pass := 0; pass < 2 && !an.exhausted; pass++ {
		for _, st := range prog.Body {
			an.walkStmt(st)
		}
	}
	an.vars = outer
}

// analyzeNested analyzes a statically resolved inner source (eval of a
// constant, staged script body) under the recursion bound.
func (an *analysis) analyzeNested(src string) {
	if an.depth >= maxEvalDepth {
		an.unsure("eval-depth")
		return
	}
	an.depth++
	an.analyzeScript(src)
	an.depth--
}

// ---- statement walk ----

func (an *analysis) walkStmt(s js.Stmt) {
	if s == nil || !an.charge() {
		return
	}
	switch n := s.(type) {
	case *js.VarStmt:
		for _, d := range n.Decls {
			var v absValue
			if d.Init != nil {
				v = an.walkExpr(d.Init)
			}
			an.assign(d.Name, v)
		}
	case *js.FuncDecl:
		an.varRef(n.Name).fn = true
		an.walkFunc(n.Fn)
	case *js.ExprStmt:
		an.walkExpr(n.X)
	case *js.IfStmt:
		an.walkExpr(n.Cond)
		an.walkStmt(n.Then)
		an.walkStmt(n.Else)
	case *js.WhileStmt:
		an.checkGrowLoop(n.Cond, n.Body)
		an.walkExpr(n.Cond)
		an.walkStmt(n.Body)
	case *js.DoWhileStmt:
		an.checkGrowLoop(n.Cond, n.Body)
		an.walkStmt(n.Body)
		an.walkExpr(n.Cond)
	case *js.ForStmt:
		an.walkStmt(n.Init)
		an.checkGrowLoop(n.Cond, n.Body)
		an.walkExpr(n.Cond)
		an.walkExpr(n.Post)
		an.walkStmt(n.Body)
	case *js.ForInStmt:
		an.assign(n.VarName, absValue{})
		an.walkExpr(n.Object)
		an.walkStmt(n.Body)
	case *js.ReturnStmt:
		an.walkExpr(n.X)
	case *js.BlockStmt:
		for _, st := range n.Body {
			an.walkStmt(st)
		}
	case *js.ThrowStmt:
		an.walkExpr(n.X)
	case *js.TryStmt:
		an.walkStmt(n.Body)
		an.walkStmt(n.Catch)
		an.walkStmt(n.Finally)
	case *js.SwitchStmt:
		an.walkExpr(n.Disc)
		for _, c := range n.Cases {
			an.walkExpr(c.Test)
			for _, st := range c.Body {
				an.walkStmt(st)
			}
		}
	case *js.BreakStmt, *js.ContinueStmt, *js.EmptyStmt:
	default:
		an.unsure("stmt-unknown")
	}
}

func (an *analysis) walkFunc(fn *js.FuncLit) {
	if fn == nil || !an.charge() {
		return
	}
	for _, p := range fn.Params {
		an.assign(p, absValue{})
	}
	for _, st := range fn.Body {
		an.walkStmt(st)
	}
}

// checkGrowLoop recognizes the self-append doubling shape
//
//	while (x.length < LIMIT) x += x;
//
// (any of while/do-while/for, += or x = x + x). Doubling an
// unescape-derived string is the heap-spray core; no benign corpus script
// self-appends at all.
func (an *analysis) checkGrowLoop(cond js.Expr, body js.Stmt) {
	bin, ok := cond.(*js.BinaryExpr)
	if !ok || (bin.Op != "<" && bin.Op != "<=") {
		return
	}
	mem, ok := bin.L.(*js.MemberExpr)
	if !ok || mem.Computed {
		return
	}
	obj, ok := mem.Object.(*js.Ident)
	if !ok {
		return
	}
	if prop, ok := mem.Property.(*js.StringLit); !ok || prop.Value != "length" {
		return
	}
	lim, ok := bin.R.(*js.NumberLit)
	if !ok {
		return
	}
	if !bodySelfAppends(body, obj.Name) {
		return
	}
	vi := an.varRef(obj.Name)
	switch {
	case vi.tags&tagUnescape != 0 && lim.Value >= sprayGrowUnits:
		an.signal(SignalSprayGrow)
	case vi.tags&tagUnescape != 0:
		an.signal(SignalUnescapeGrow)
	case lim.Value >= sprayGrowUnits:
		an.signal(SignalLargeGrow)
	}
}

// bodySelfAppends reports whether the loop body contains x += ...x... or
// x = ...x... (the value mentioning x itself).
func bodySelfAppends(body js.Stmt, name string) bool {
	switch n := body.(type) {
	case *js.ExprStmt:
		return exprSelfAppends(n.X, name)
	case *js.BlockStmt:
		for _, st := range n.Body {
			if bodySelfAppends(st, name) {
				return true
			}
		}
	}
	return false
}

func exprSelfAppends(e js.Expr, name string) bool {
	as, ok := e.(*js.AssignExpr)
	if !ok {
		return false
	}
	id, ok := as.Target.(*js.Ident)
	if !ok || id.Name != name {
		return false
	}
	return (as.Op == "+=" || as.Op == "=") && exprMentions(as.Value, name)
}

// exprMentions reports whether the expression references the identifier
// (shallow structural scan over the value-producing shapes growth bodies
// use).
func exprMentions(e js.Expr, name string) bool {
	switch n := e.(type) {
	case *js.Ident:
		return n.Name == name
	case *js.BinaryExpr:
		return exprMentions(n.L, name) || exprMentions(n.R, name)
	case *js.MemberExpr:
		return exprMentions(n.Object, name)
	case *js.CallExpr:
		for _, a := range n.Args {
			if exprMentions(a, name) {
				return true
			}
		}
		return exprMentions(n.Callee, name)
	}
	return false
}

// ---- expression walk ----

func (an *analysis) walkExpr(e js.Expr) absValue {
	if e == nil || !an.charge() {
		return absValue{}
	}
	switch n := e.(type) {
	case *js.StringLit:
		return absValue{str: n.Value, hasStr: true}
	case *js.NumberLit, *js.BoolLit, *js.NullLit, *js.ThisLit:
		return absValue{}
	case *js.Ident:
		if vi, ok := an.vars[n.Name]; ok {
			return vi.absValue
		}
		return absValue{}
	case *js.ArrayLit:
		var v absValue
		for _, el := range n.Elems {
			v.tags |= an.walkExpr(el).tags
		}
		v.hasStr = false
		return v
	case *js.ObjectLit:
		for _, val := range n.Values {
			an.walkExpr(val)
		}
		return absValue{}
	case *js.FuncLit:
		an.walkFunc(n)
		return absValue{}
	case *js.UnaryExpr:
		an.walkExpr(n.X)
		return absValue{}
	case *js.UpdateExpr:
		an.walkExpr(n.X)
		return absValue{}
	case *js.BinaryExpr:
		l, r := an.walkExpr(n.L), an.walkExpr(n.R)
		v := absValue{tags: l.tags | r.tags}
		if n.Op == "+" && l.hasStr && r.hasStr {
			v.str, v.hasStr = l.str+r.str, true
		}
		return v
	case *js.LogicalExpr:
		l, r := an.walkExpr(n.L), an.walkExpr(n.R)
		return absValue{tags: l.tags | r.tags}
	case *js.CondExpr:
		an.walkExpr(n.Cond)
		t, f := an.walkExpr(n.Then), an.walkExpr(n.Else)
		return absValue{tags: t.tags | f.tags}
	case *js.AssignExpr:
		v := an.walkExpr(n.Value)
		if id, ok := n.Target.(*js.Ident); ok {
			if n.Op == "=" {
				an.assign(id.Name, v)
			} else {
				vi := an.varRef(id.Name)
				vi.tags |= v.tags
				vi.hasStr = false
			}
		} else {
			an.walkExpr(n.Target)
		}
		return v
	case *js.SeqExpr:
		var v absValue
		for _, x := range n.Exprs {
			v = an.walkExpr(x)
		}
		return v
	case *js.MemberExpr:
		an.walkExpr(n.Object)
		if n.Computed {
			an.walkExpr(n.Property)
		}
		return absValue{}
	case *js.NewExpr:
		for _, a := range n.Args {
			an.walkExpr(a)
		}
		if id, ok := n.Callee.(*js.Ident); ok && benignCtors[id.Name] {
			return absValue{}
		}
		an.unsure("new-unknown")
		return absValue{}
	case *js.CallExpr:
		return an.walkCall(n)
	default:
		an.unsure("expr-unknown")
		return absValue{}
	}
}

// assign merges a value into a variable (tags are unioned — the
// flow-insensitive over-approximation — while the string constant tracks
// the latest resolvable value).
func (an *analysis) assign(name string, v absValue) {
	vi := an.varRef(name)
	vi.tags |= v.tags
	vi.str, vi.hasStr = v.str, v.hasStr
}

// walkCall classifies one call site.
func (an *analysis) walkCall(call *js.CallExpr) absValue {
	args := make([]absValue, len(call.Args))
	for i, a := range call.Args {
		args[i] = an.walkExpr(a)
	}
	var argTags tagSet
	for _, a := range args {
		argTags |= a.tags
	}
	final := reader.CalleeName(call.Callee)

	switch final {
	case "unescape":
		an.signal(SignalUnescape)
		return absValue{tags: argTags | tagUnescape}
	case "eval":
		an.signal(SignalEval)
		if len(args) >= 1 && args[0].hasStr {
			an.analyzeNested(args[0].str)
		} else {
			an.unsure("eval-dynamic")
		}
		return absValue{}
	case "printf":
		if len(args) >= 1 && args[0].hasStr {
			if reader.MaxFormatWidth(args[0].str) >= printfWidthLimit {
				an.signal(SignalPrintfWidth)
			}
			return absValue{hasStr: false}
		}
		an.unsure("printf-dynamic")
		return absValue{}
	}
	if m, staged := reader.StagedMethods[final]; staged {
		if m.Timer {
			an.signal(SignalStagedTimer)
		} else {
			an.signal(SignalStagedScript)
		}
		if i, ok := reader.CodeArg(final, len(args)); ok && args[i].hasStr {
			an.analyzeNested(args[i].str)
		} else {
			an.unsure("staging-dynamic")
		}
		return absValue{}
	}
	if triggerAPIs[final] {
		an.signal("api-" + final)
		return absValue{}
	}
	if benignAPIs[final] {
		return absValue{tags: argTags &^ tagUnescape}
	}
	// A bare call to a function declared in this script is covered by the
	// declaration's own walk.
	if id, ok := call.Callee.(*js.Ident); ok {
		if vi, ok := an.vars[id.Name]; ok && vi.fn {
			return absValue{}
		}
	}
	an.unsure("api-unknown:" + shortPath(calleePath(call.Callee)))
	return absValue{}
}

// calleePath renders a call target as a dotted path for uncertainty
// markers; unresolvable parts become "?".
func calleePath(e js.Expr) string {
	switch n := e.(type) {
	case *js.Ident:
		return n.Name
	case *js.ThisLit:
		return "this"
	case *js.MemberExpr:
		prop := "?"
		if !n.Computed {
			if s, ok := n.Property.(*js.StringLit); ok {
				prop = s.Value
			}
		}
		return calleePath(n.Object) + "." + prop
	default:
		return "?"
	}
}

// shortPath bounds the path embedded in an uncertainty marker so hostile
// sources cannot balloon the decision record.
func shortPath(path string) string {
	const max = 48
	if len(path) > max {
		return path[:max] + "..."
	}
	return path
}
