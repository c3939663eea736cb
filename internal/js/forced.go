package js

// Forced execution (JSForce-style, PAPERS.md): re-run a script several
// times, each time forcing a different outcome at one force-eligible
// conditional branch, so code hidden behind time bombs, environment
// fingerprints, and debugger checks executes anyway. The explorer is a
// generational search over branch-decision prefixes rather than a heap
// snapshot machine: path k replays the decisions of a completed path up
// to some index i, flips decision i, and lets everything after i take
// its natural course. Re-execution from the top is the snapshot — the
// interpreter, scopes, and host objects are rebuilt deterministically by
// the caller's run function, which is cheaper and simpler than deep-
// copying the scope chain and heap at every branch, and it composes with
// host callbacks (SOAP notifications, exploit emulation) that cannot be
// snapshotted at all.
//
// Only branches the compiler marked force-eligible participate: if/else
// and ternary conditionals. Loop back-edges, switch dispatch, and &&/||
// short-circuits always take their natural outcome, so a decryptor
// for-loop cannot saturate the decision budget before the payload gate
// is reached.

import "errors"

// Default exploration bounds. Sixteen paths covers every single-flip
// variant of a script with up to fifteen guards plus the natural run;
// evasive loaders in the wild gate on one or two conditions.
const (
	DefaultForceMaxPaths     = 16
	DefaultForceMaxDecisions = 64
	DefaultForcePathSteps    = 2_000_000
)

// ForceConfig bounds one forced-execution exploration.
type ForceConfig struct {
	// MaxPaths caps the total number of explored paths including the
	// natural one (0 = DefaultForceMaxPaths).
	MaxPaths int
	// MaxDecisions caps recorded force-eligible decisions per path;
	// later branches take their natural outcome (0 = DefaultForceMaxDecisions).
	MaxDecisions int
	// PathSteps is the interpreter step budget granted to each path on
	// top of the steps already consumed (0 = DefaultForcePathSteps). The
	// interpreter's overall StepLimit remains a hard ceiling.
	PathSteps int64
}

func (c ForceConfig) maxPaths() int {
	if c.MaxPaths > 0 {
		return c.MaxPaths
	}
	return DefaultForceMaxPaths
}

func (c ForceConfig) maxDecisions() int {
	if c.MaxDecisions > 0 {
		return c.MaxDecisions
	}
	return DefaultForceMaxDecisions
}

func (c ForceConfig) pathSteps() int64 {
	if c.PathSteps > 0 {
		return c.PathSteps
	}
	return DefaultForcePathSteps
}

// ForceState drives one path: decisions with an index inside the prefix
// are forced to the prefix value; decisions past it take their natural
// outcome and are recorded so the scheduler can flip them next.
type ForceState struct {
	prefix       []bool
	trace        []bool
	maxDecisions int
	overflowed   bool
}

// next reports the outcome branch in.b-flagged jumps must take. natural
// is the outcome the condition value itself produced.
func (fs *ForceState) next(natural bool) bool {
	i := len(fs.trace)
	if i < len(fs.prefix) {
		v := fs.prefix[i]
		fs.trace = append(fs.trace, v)
		return v
	}
	if i >= fs.maxDecisions {
		fs.overflowed = true
		return natural
	}
	fs.trace = append(fs.trace, natural)
	return natural
}

// ForceResult summarizes one exploration.
type ForceResult struct {
	// Paths is the number of paths executed, including the natural one.
	Paths int
	// CrashedPaths counts forced paths abandoned on a FatalError (the
	// emulated process crash is recovered from, not propagated).
	CrashedPaths int
	// BudgetExhausted counts paths cut short by a step/heap budget or by
	// the per-path decision cap, plus one if the path frontier was still
	// non-empty when MaxPaths (or the global step ceiling) stopped the
	// exploration.
	BudgetExhausted int
	// NaturalErr is the error returned by the first (unforced) path, so
	// callers keep their single-run error semantics.
	NaturalErr error
}

// Exhausted reports whether any budget cut the exploration short.
func (r ForceResult) Exhausted() bool { return r.BudgetExhausted > 0 }

// ExploreForced runs run once naturally, then repeatedly with forced
// branch decisions until every single-flip frontier of the explored
// traces is covered or a budget stops it. run is invoked with the
// receiver's Force state installed; it must re-execute the same script
// through this interpreter (typically a closure over Interp.Run).
// Interpreter state is NOT rolled back between paths: observable
// features union monotonically across paths, which is exactly the
// detection semantics the deep-scan tier wants.
func (it *Interp) ExploreForced(cfg ForceConfig, run func() error) ForceResult {
	maxPaths := cfg.maxPaths()
	maxDecisions := cfg.maxDecisions()
	pathSteps := cfg.pathSteps()

	ceiling := it.StepLimit
	if ceiling == 0 {
		ceiling = DefaultStepLimit
	}

	prevForce := it.Force
	prevLimit := it.StepLimit
	defer func() {
		it.Force = prevForce
		it.StepLimit = prevLimit
	}()

	var res ForceResult
	visited := map[string]bool{"": true}
	queue := [][]bool{nil}

	for len(queue) > 0 {
		if res.Paths >= maxPaths || it.steps >= ceiling {
			res.BudgetExhausted++ // frontier abandoned
			return res
		}
		prefix := queue[0]
		queue = queue[1:]

		fs := &ForceState{prefix: prefix, maxDecisions: maxDecisions}
		it.Force = fs
		budget := it.steps + pathSteps
		if budget > ceiling {
			budget = ceiling
		}
		it.StepLimit = budget

		err := run()
		res.Paths++
		if res.Paths == 1 {
			res.NaturalErr = err
		}
		if err != nil && res.Paths > 1 {
			if _, fatal := AsFatal(err); fatal {
				res.CrashedPaths++
			}
		}
		if err == ErrBudget || err == ErrHeapLimit || fs.overflowed {
			res.BudgetExhausted++
		}

		// Frontier: flip each decision this path took naturally (indices
		// past the replayed prefix), breadth-first and deduplicated, so
		// exploration order — and therefore the journaled feature stream —
		// is deterministic.
		for i := len(prefix); i < len(fs.trace); i++ {
			flip := make([]bool, i+1)
			copy(flip, fs.trace[:i])
			flip[i] = !fs.trace[i]
			k := traceKey(flip)
			if !visited[k] {
				visited[k] = true
				queue = append(queue, flip)
			}
		}
	}
	return res
}

// AsFatal unwraps a FatalError if err carries one.
func AsFatal(err error) (*FatalError, bool) {
	var fe *FatalError
	ok := errors.As(err, &fe)
	return fe, ok
}

func traceKey(t []bool) string {
	b := make([]byte, len(t))
	for i, v := range t {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
