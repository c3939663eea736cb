package js

import (
	"errors"
	"testing"
)

// probeInterp builds an interpreter with a probe(tag) host recorder and a
// die() host that raises an uncatchable FatalError (a crashed exploit).
func probeInterp() (*Interp, *[]string) {
	it := New()
	calls := &[]string{}
	it.Global.Declare("probe", ObjectValue(NewHostFunc("probe", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) > 0 {
			*calls = append(*calls, args[0].Str())
		}
		return Undefined(), nil
	})))
	it.Global.Declare("die", ObjectValue(NewHostFunc("die", func(_ *Interp, _ Value, _ []Value) (Value, error) {
		return Undefined(), &FatalError{Err: errors.New("boom")}
	})))
	return it, calls
}

func explore(t *testing.T, it *Interp, cfg ForceConfig, src string) ForceResult {
	t.Helper()
	return it.ExploreForced(cfg, func() error {
		_, err := it.Run(src)
		return err
	})
}

func count(calls []string, tag string) int {
	n := 0
	for _, c := range calls {
		if c == tag {
			n++
		}
	}
	return n
}

// TestForcedExploresBothArms is the core property: a gate that is
// naturally closed gets its hidden arm executed on a forced path.
func TestForcedExploresBothArms(t *testing.T) {
	it, calls := probeInterp()
	res := explore(t, it, ForceConfig{}, `
		if (false) { probe("hidden"); } else { probe("open"); }
	`)
	if res.NaturalErr != nil {
		t.Fatalf("natural path errored: %v", res.NaturalErr)
	}
	if res.Paths != 2 {
		t.Fatalf("paths = %d, want 2", res.Paths)
	}
	if count(*calls, "hidden") != 1 || count(*calls, "open") != 1 {
		t.Fatalf("coverage = %v, want one hidden and one open", *calls)
	}
}

// TestForcedNestedGates: two stacked gates need three extra paths; the
// doubly-hidden arm is still reached.
func TestForcedNestedGates(t *testing.T) {
	it, calls := probeInterp()
	res := explore(t, it, ForceConfig{}, `
		if (false) {
			probe("outer");
			if (false) { probe("inner"); }
		}
	`)
	if count(*calls, "inner") != 1 {
		t.Fatalf("inner arm never reached: %v (paths=%d)", *calls, res.Paths)
	}
}

// TestForcedTernary: valued conditionals are force-eligible too.
func TestForcedTernary(t *testing.T) {
	it, calls := probeInterp()
	explore(t, it, ForceConfig{}, `var x = false ? probe("t") : probe("f");`)
	if count(*calls, "t") != 1 || count(*calls, "f") != 1 {
		t.Fatalf("ternary arms = %v, want both", *calls)
	}
}

// TestForcedLoopsStayNatural: loop back-edges are never flipped, so a
// plain counting loop explores exactly one path — a decryptor's for-loop
// cannot saturate the path budget.
func TestForcedLoopsStayNatural(t *testing.T) {
	it, calls := probeInterp()
	res := explore(t, it, ForceConfig{}, `
		var n = 0;
		for (var i = 0; i < 100; i++) { n += i; }
		var j = 0;
		while (j < 50) { j++; }
		probe("done-" + n + "-" + j);
	`)
	if res.Paths != 1 {
		t.Fatalf("paths = %d, want 1 (loops must not fork)", res.Paths)
	}
	if count(*calls, "done-4950-50") != 1 {
		t.Fatalf("loop semantics changed: %v", *calls)
	}
	if res.Exhausted() {
		t.Fatalf("budget flagged exhausted on a loop-only script: %+v", res)
	}
}

// TestForcedCrashRecovery: a forced path that dies on a FatalError is
// abandoned and counted, exploration continues, and the natural path's
// clean completion is what ExploreForced reports.
func TestForcedCrashRecovery(t *testing.T) {
	it, calls := probeInterp()
	res := explore(t, it, ForceConfig{}, `
		if (false) { probe("armed"); die(); probe("unreachable"); }
		probe("natural");
	`)
	if res.NaturalErr != nil {
		t.Fatalf("natural path errored: %v", res.NaturalErr)
	}
	if res.CrashedPaths != 1 {
		t.Fatalf("crashed paths = %d, want 1", res.CrashedPaths)
	}
	if count(*calls, "armed") != 1 {
		t.Fatalf("crashing arm never entered: %v", *calls)
	}
	if count(*calls, "unreachable") != 0 {
		t.Fatalf("execution continued past the fatal error: %v", *calls)
	}
}

// TestForcedNaturalCrashReported: when the NATURAL path itself dies, the
// error is surfaced (standard single-run semantics), while forced
// exploration still proceeds from the frontier it saw.
func TestForcedNaturalCrashReported(t *testing.T) {
	it, _ := probeInterp()
	res := explore(t, it, ForceConfig{}, `
		if (true) { die(); }
	`)
	if _, ok := AsFatal(res.NaturalErr); !ok {
		t.Fatalf("natural error = %v, want FatalError", res.NaturalErr)
	}
}

// TestForcedMaxPaths: the path budget caps exploration and is reported.
func TestForcedMaxPaths(t *testing.T) {
	it, _ := probeInterp()
	res := explore(t, it, ForceConfig{MaxPaths: 3}, `
		if (false) { probe("a"); }
		if (false) { probe("b"); }
		if (false) { probe("c"); }
		if (false) { probe("d"); }
	`)
	if res.Paths != 3 {
		t.Fatalf("paths = %d, want capped at 3", res.Paths)
	}
	if !res.Exhausted() {
		t.Fatal("path cap hit but Exhausted() is false")
	}
}

// TestForcedDecisionOverflow: past MaxDecisions the trace stops growing,
// decisions take their natural course, and the overflow is reported —
// bounded work on branch-dense scripts.
func TestForcedDecisionOverflow(t *testing.T) {
	it, _ := probeInterp()
	res := explore(t, it, ForceConfig{MaxPaths: 4, MaxDecisions: 2}, `
		var n = 0;
		if (n == 0) { n = 1; }
		if (n == 1) { n = 2; }
		if (n == 2) { n = 3; }
		if (n == 3) { n = 4; }
	`)
	if !res.Exhausted() {
		t.Fatal("decision overflow not reported")
	}
}

// TestForcedDeterministic: two explorations of the same script visit
// paths in the same order with the same coverage — the property the
// journal's replay contract rides on.
func TestForcedDeterministic(t *testing.T) {
	src := `
		if (false) { probe("a"); if (false) { probe("b"); } }
		if (false) { probe("c"); } else { probe("d"); }
	`
	it1, c1 := probeInterp()
	r1 := explore(t, it1, ForceConfig{}, src)
	it2, c2 := probeInterp()
	r2 := explore(t, it2, ForceConfig{}, src)
	if r1.Paths != r2.Paths {
		t.Fatalf("path counts differ: %d vs %d", r1.Paths, r2.Paths)
	}
	if len(*c1) != len(*c2) {
		t.Fatalf("coverage streams differ: %v vs %v", *c1, *c2)
	}
	for i := range *c1 {
		if (*c1)[i] != (*c2)[i] {
			t.Fatalf("coverage order differs at %d: %v vs %v", i, *c1, *c2)
		}
	}
}

// TestForcedRestoresInterp: ExploreForced must leave the interpreter's
// Force/StepLimit/treeWalk exactly as it found them.
func TestForcedRestoresInterp(t *testing.T) {
	it, _ := probeInterp()
	it.StepLimit = 12345678
	it.treeWalk = true
	explore(t, it, ForceConfig{}, `if (false) { probe("x"); }`)
	if it.Force != nil {
		t.Fatal("Force state leaked")
	}
	if it.StepLimit != 12345678 {
		t.Fatalf("StepLimit = %d, want 12345678", it.StepLimit)
	}
	if !it.treeWalk {
		t.Fatal("treeWalk flag not restored")
	}
}
