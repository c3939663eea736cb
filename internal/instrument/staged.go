package instrument

import (
	"sort"

	"pdfshield/internal/js"
	"pdfshield/internal/reader"
)

const maxStagedDepth = 8

// rewriteStaged statically defeats staged and delayed attacks (§IV): it
// returns source with the code argument of every staged call
// (reader.StagedMethods) replaced by wrap's monitored version, so scripts
// added or delayed at run time carry their own context monitoring code.
// Only a code argument that is a single string literal is rewritten;
// staged calls inside it are rewritten first. It also returns the number
// of arguments wrapped.
func rewriteStaged(source string, depth int, wrap func(inner string) string) (string, int) {
	if depth > maxStagedDepth {
		return source, 0
	}
	lits := stagedLiterals(source)
	count := 0
	// Replace back to front so earlier spans stay valid.
	out := source
	for i := len(lits) - 1; i >= 0; i-- {
		lit := lits[i]
		rewritten, nested := rewriteStaged(lit.Value, depth+1, wrap)
		count += nested + 1
		out = out[:lit.Pos] + jsStringLiteral(wrap(rewritten)) + out[lit.End:]
	}
	return out, count
}

// stagedLiterals returns, in source order, the string literals that are
// the code argument of a staged call. It reads the source with the
// engine's own parser, so it splits argument lists and decodes literals
// exactly as the engine will run them; a source the parser rejects cannot
// run, and yields none.
func stagedLiterals(source string) []*js.StringLit {
	prog, err := js.Parse(source)
	if err != nil {
		return nil
	}
	var lits []*js.StringLit
	for _, call := range prog.Calls {
		var callee js.Expr
		var args []js.Expr
		switch c := call.(type) {
		case *js.CallExpr:
			callee, args = c.Callee, c.Args
		case *js.NewExpr:
			callee, args = c.Callee, c.Args
		}
		k, ok := reader.CodeArg(reader.CalleeName(callee), len(args))
		if !ok {
			continue
		}
		if lit, ok := args[k].(*js.StringLit); ok {
			lits = append(lits, lit)
		}
	}
	// Calls are listed inner first; their code literals are disjoint.
	sort.Slice(lits, func(a, b int) bool { return lits[a].Pos < lits[b].Pos })
	return lits
}
