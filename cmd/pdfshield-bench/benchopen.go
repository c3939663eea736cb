package main

// Open-phase and script-engine sections of the -json benchmark, plus the
// -compare regression gate. The batch/cache sections time the scriptless
// front-end; everything here times what the bytecode engine changed: the
// reader-side open of Javascript-bearing documents, under both engines,
// and the script engine itself on isolated workloads where the
// parse-versus-execute split is controlled.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
	"pdfshield/internal/serve"
)

// Open-phase workload size: enough distinct documents that the unit cache
// holds a realistic working set, enough reps that p50 is stable.
const (
	openBenchDocCount = 12
	openBenchReps     = 9
)

// benchOpenPass summarizes per-open wall-clock over one engine config.
type benchOpenPass struct {
	Opens    int     `json:"opens"`
	P50Us    float64 `json:"p50_us"`
	P90Us    float64 `json:"p90_us"`
	TotalSec float64 `json:"total_sec"`
}

// benchOpenPhase is the document-open benchmark: the same instrumented
// JS-bearing corpus opened under the tree-walking engine (the only engine
// prior records had), the bytecode engine with a purged unit cache (every
// open pays compilation), and the bytecode engine with the unit cache as
// instrumentation left it (the deployed configuration: every open hits).
type benchOpenPhase struct {
	Docs         int               `json:"docs"`
	RepsPerPass  int               `json:"reps_per_pass"`
	TreeWalk     benchOpenPass     `json:"tree_walk"`
	BytecodeCold benchOpenPass     `json:"bytecode_cold"`
	BytecodeWarm benchOpenPass     `json:"bytecode_warm"`
	WarmSpeedup  float64           `json:"warm_speedup_vs_tree"` // tree p50 / warm p50
	Units        js.UnitCacheStats `json:"js_units"`             // cumulative, after the warm pass
	// UnitHitRate covers the warm pass alone (stats delta across it): the
	// deployed steady state, where instrument-time warming means opens
	// never compile. The cold pass's deliberate misses are excluded.
	UnitHitRate float64 `json:"js_unit_hit_rate"`
}

// benchJSWorkload is one script-engine microbenchmark: a single source run
// to completion on a fresh interpreter per iteration, so the tree engine
// pays parse+walk every run and the bytecode engine pays one shared
// compile (unit-cache hit) plus dispatch.
type benchJSWorkload struct {
	Name    string  `json:"name"`
	TreeUs  float64 `json:"tree_walk_us_per_run"`
	VMUs    float64 `json:"bytecode_us_per_run"`
	Speedup float64 `json:"speedup"`
}

func pctUS(durs []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(float64(len(s)-1)*q)]) / float64(time.Microsecond)
}

// openBenchDocs instruments a small interactive JS-bearing population —
// light carriers whose open cost is script handling, not carrier parse —
// warming `units` as a production instrument step would.
func openBenchDocs(seed int64, n int, units *js.UnitCache) ([]*instrument.Result, error) {
	g := corpus.NewGenerator(seed)
	sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: seed, Obs: obs.NewRegistry(), JSUnits: units})
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.Close() }()
	docs := make([]*instrument.Result, 0, n)
	for i := 0; i < n; i++ {
		s := g.BenignInteractiveJS()
		res, err := sys.Instrumenter.InstrumentBytes(s.ID, s.Raw)
		if err != nil {
			return nil, fmt.Errorf("instrument %s: %w", s.ID, err)
		}
		docs = append(docs, res)
	}
	return docs, nil
}

// runOpenPass opens every document reps times on one session (recycled
// between opens, as a scanning tier runs) and pools the per-open
// durations. purgeUnits empties the unit cache before each rep so every
// open compiles from scratch.
func runOpenPass(docs []*instrument.Result, units *js.UnitCache, seed int64, reps int, treeWalk, purgeUnits bool) (benchOpenPass, error) {
	var pass benchOpenPass
	sys, err := pipeline.NewSystem(pipeline.Options{
		ViewerVersion: 9.0, Seed: seed, Obs: obs.NewRegistry(),
		JSUnits: units, TreeWalkJS: treeWalk,
	})
	if err != nil {
		return pass, err
	}
	defer func() { _ = sys.Close() }()
	sess := sys.NewSession()
	defer sess.Close()

	durs := make([]time.Duration, 0, reps*len(docs))
	for rep := 0; rep < reps; rep++ {
		if purgeUnits {
			units.Purge()
		}
		for _, d := range docs {
			start := time.Now()
			if _, err := sess.Open(d, reader.OpenOptions{}); err != nil {
				return pass, fmt.Errorf("open %s: %w", d.DocID, err)
			}
			durs = append(durs, time.Since(start))
			sess.Recycle()
		}
	}
	pass.Opens = len(durs)
	pass.P50Us = pctUS(durs, 0.5)
	pass.P90Us = pctUS(durs, 0.9)
	for _, d := range durs {
		pass.TotalSec += d.Seconds()
	}
	return pass, nil
}

// runOpenBench measures the three engine configurations over one shared
// instrumented corpus. Pass order matters: the warm pass runs on the unit
// cache exactly as instrumentation left it (the deployed steady state —
// everything an open loads was precompiled at instrument time), so the
// cold pass and its purges run last.
func runOpenBench(seed int64, nDocs, reps int) (benchOpenPhase, error) {
	phase := benchOpenPhase{Docs: nDocs, RepsPerPass: reps}
	units := js.NewUnitCache(js.DefaultUnitCacheBytes)
	docs, err := openBenchDocs(seed, nDocs, units)
	if err != nil {
		return phase, err
	}

	if phase.TreeWalk, err = runOpenPass(docs, units, seed, reps, true, false); err != nil {
		return phase, fmt.Errorf("tree-walk pass: %w", err)
	}
	pre := units.Stats()
	if phase.BytecodeWarm, err = runOpenPass(docs, units, seed, reps, false, false); err != nil {
		return phase, fmt.Errorf("bytecode warm pass: %w", err)
	}
	warmStats := units.Stats()
	if phase.BytecodeCold, err = runOpenPass(docs, units, seed, reps, false, true); err != nil {
		return phase, fmt.Errorf("bytecode cold pass: %w", err)
	}
	if phase.BytecodeWarm.P50Us > 0 {
		phase.WarmSpeedup = phase.TreeWalk.P50Us / phase.BytecodeWarm.P50Us
	}
	phase.Units = units.Stats()
	hits := warmStats.Hits - pre.Hits
	misses := warmStats.Misses - pre.Misses
	if total := hits + misses; total > 0 {
		phase.UnitHitRate = float64(hits) / float64(total)
	}
	return phase, nil
}

// ---- script-engine microbenchmarks ----

// jsWorkloads isolates the engine from the document pipeline. Each source
// is run on a fresh interpreter per iteration: the tree engine re-parses
// and walks; the bytecode engine hits the shared unit cache and dispatches
// compiled code. "straightline" is parse-bound (where compilation wins),
// "form_script" is the corpus's typical benign shape, "decrypt_loop" is
// execution-bound host-call churn like the monitor prologue (where the
// engines are expected to tie — the win there comes from not re-parsing).
func jsWorkloads() []struct{ name, src string } {
	var b strings.Builder
	b.WriteString("var a0 = 1;\n")
	for i := 1; i < 4000; i++ {
		fmt.Fprintf(&b, "var a%d = a%d + %d;\n", i, i-1, i%7)
	}
	fmt.Fprintf(&b, "a%d;", 3999)
	straightline := b.String()

	form := `
var total = 0;
function validate(v) {
  if (v < 0) { return 0; }
  return v * 2 + 1;
}
for (var i = 0; i < 200; i++) {
  total = total + validate(i % 11);
}
total;`

	decrypt := `
var src = '';
for (var i = 0; i < 60; i++) { src = src + '6a60'; }
var out = '';
for (var j = 0; j < src.length; j = j + 2) {
  out = out + String.fromCharCode(parseInt(src.substr(j, 2), 16) ^ 3);
}
out.length;`

	return []struct{ name, src string }{
		{"straightline_4000", straightline},
		{"form_script", form},
		{"decrypt_loop", decrypt},
	}
}

const jsBenchIters = 60

// minUS returns the fastest run in microseconds — min-of-N, like the
// batch passes: these runs finish in microseconds, where GC and scheduler
// noise dominate anything but the best case, especially with GOMAXPROCS
// raised past the physical core count.
func minUS(durs []time.Duration) float64 {
	best := durs[0]
	for _, d := range durs[1:] {
		if d < best {
			best = d
		}
	}
	return float64(best) / float64(time.Microsecond)
}

// runJSEngineBench times each workload under both engines, reporting the
// fastest per-run time. A fresh interpreter per run keeps step budgets and
// globals identical across engines; only the unit cache persists.
func runJSEngineBench() ([]benchJSWorkload, error) {
	units := js.NewUnitCache(js.DefaultUnitCacheBytes)
	timeRuns := func(src string, treeWalk bool) ([]time.Duration, error) {
		durs := make([]time.Duration, 0, jsBenchIters)
		for i := 0; i < jsBenchIters; i++ {
			it := js.New()
			it.TreeWalk = treeWalk
			it.Units = units
			start := time.Now()
			if _, err := it.Run(src); err != nil {
				return nil, err
			}
			durs = append(durs, time.Since(start))
		}
		return durs, nil
	}
	var out []benchJSWorkload
	for _, w := range jsWorkloads() {
		units.Warm(w.src) // the deployed state: instrument time precompiled it
		tree, err := timeRuns(w.src, true)
		if err != nil {
			return nil, fmt.Errorf("workload %s (tree): %w", w.name, err)
		}
		vm, err := timeRuns(w.src, false)
		if err != nil {
			return nil, fmt.Errorf("workload %s (vm): %w", w.name, err)
		}
		wl := benchJSWorkload{
			Name:   w.name,
			TreeUs: minUS(tree),
			VMUs:   minUS(vm),
		}
		if wl.VMUs > 0 {
			wl.Speedup = wl.TreeUs / wl.VMUs
		}
		out = append(out, wl)
	}
	return out, nil
}

// ---- -compare: the bench-to-bench regression gate ----

// openP50Tolerance is the allowed open-phase p50 regression between two
// records before -compare fails the build.
const openP50Tolerance = 1.10

// docsPerSecTolerance is how far the new record's end-to-end throughput
// may fall below the old one's before -compare fails the build. The gate
// runs on the parallel-cached pass (the deployed configuration); 10% is
// loose enough for run-to-run noise under min-of-7 reps.
const docsPerSecTolerance = 0.90

// runCompare loads two benchmark records and fails (non-nil error) if the
// new record's warm open-phase p50 regressed more than 10% against the
// old one. Records from before the open-phase section existed (schema
// pdfshield-bench/1) carry no open data; the gate is skipped with a note
// so older baselines stay usable for the throughput columns.
func runCompare(oldPath, newPath string) error {
	load := func(path string) (benchRecord, error) {
		var rec benchRecord
		data, err := os.ReadFile(path)
		if err != nil {
			return rec, err
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			return rec, fmt.Errorf("%s: %w", path, err)
		}
		return rec, nil
	}
	oldRec, err := load(oldPath)
	if err != nil {
		return err
	}
	newRec, err := load(newPath)
	if err != nil {
		return err
	}

	fmt.Printf("bench compare: %s (%s) -> %s (%s)\n", oldPath, oldRec.Schema, newPath, newRec.Schema)
	ratio := func(oldV, newV float64) string {
		if oldV <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (newV/oldV-1)*100)
	}
	switch {
	case oldRec.SerialUncached.Docs > 0 && newRec.SerialUncached.Docs == 0:
		fmt.Println("  batch sections: only the OLD record has them (serve-only NEW); skipped")
	case oldRec.SerialUncached.Docs == 0 && newRec.SerialUncached.Docs > 0:
		fmt.Println("  batch sections: only the NEW record has them (serve-only OLD); skipped")
	case oldRec.SerialUncached.Docs > 0 && newRec.SerialUncached.Docs > 0:
		fmt.Printf("  serial uncached:   %8.2f -> %8.2f docs/sec (%s)\n",
			oldRec.SerialUncached.DocsPerSec, newRec.SerialUncached.DocsPerSec,
			ratio(oldRec.SerialUncached.DocsPerSec, newRec.SerialUncached.DocsPerSec))
		fmt.Printf("  parallel uncached: %8.2f -> %8.2f docs/sec (%s)\n",
			oldRec.ParallelUncached.DocsPerSec, newRec.ParallelUncached.DocsPerSec,
			ratio(oldRec.ParallelUncached.DocsPerSec, newRec.ParallelUncached.DocsPerSec))
		fmt.Printf("  parallel cached:   %8.2f -> %8.2f docs/sec (%s)\n",
			oldRec.ParallelCached.DocsPerSec, newRec.ParallelCached.DocsPerSec,
			ratio(oldRec.ParallelCached.DocsPerSec, newRec.ParallelCached.DocsPerSec))
	}
	if oldRec.Serve != nil || newRec.Serve != nil {
		var o, n serve.LoadStats
		if oldRec.Serve != nil {
			o = *oldRec.Serve
		}
		if newRec.Serve != nil {
			n = *newRec.Serve
		}
		fmt.Printf("  serve throughput:  %8.2f -> %8.2f docs/sec (%s)\n", o.DocsPerSec, n.DocsPerSec, ratio(o.DocsPerSec, n.DocsPerSec))
		fmt.Printf("  serve p50:         %8.2f -> %8.2f ms (%s)\n", o.P50Ms, n.P50Ms, ratio(o.P50Ms, n.P50Ms))
		fmt.Printf("  serve p99:         %8.2f -> %8.2f ms (%s)\n", o.P99Ms, n.P99Ms, ratio(o.P99Ms, n.P99Ms))
		fmt.Printf("  serve rejection:   %7.1f%% -> %7.1f%%\n", o.RejectionRate*100, n.RejectionRate*100)
	}
	if oldRec.Triage != nil || newRec.Triage != nil {
		var o, n benchTriage
		if oldRec.Triage != nil {
			o = *oldRec.Triage
		}
		if newRec.Triage != nil {
			n = *newRec.Triage
		}
		switch {
		case oldRec.Triage == nil:
			fmt.Printf("  triage: %s predates the triage section (schema/4); %s routes %.1f -> %.1f docs/sec (%.1fx)\n",
				oldPath, newPath, n.Off.DocsPerSec, n.On.DocsPerSec, n.Speedup)
		case newRec.Triage == nil:
			fmt.Printf("  triage: only the OLD record has the section; skipped\n")
		default:
			fmt.Printf("  triage on:         %8.2f -> %8.2f docs/sec (%s)\n",
				o.On.DocsPerSec, n.On.DocsPerSec, ratio(o.On.DocsPerSec, n.On.DocsPerSec))
			fmt.Printf("  triage speedup:    %7.1fx -> %7.1fx\n", o.Speedup, n.Speedup)
		}
	}

	// Forced-execution gate: the deep-depth detection rate on the evasive
	// corpus must never decrease — coverage is the tier's whole point, so
	// a cheaper deep scan that misses a gated exploit is a regression, not
	// an optimization.
	if oldRec.DeepScan != nil || newRec.DeepScan != nil {
		switch {
		case oldRec.DeepScan == nil:
			fmt.Printf("  deepscan: %s predates the deep-scan section (schema/5); new deep rate %.0f%% at %.1fx cost\n",
				oldPath, newRec.DeepScan.DeepRate*100, newRec.DeepScan.CostRatio)
		case newRec.DeepScan == nil:
			fmt.Println("  deepscan: only the OLD record has the section; skipped")
		default:
			o, n := oldRec.DeepScan, newRec.DeepScan
			fmt.Printf("  deepscan detect:   %5.0f%% -> %5.0f%% deep (standard %.0f%% -> %.0f%%)\n",
				o.DeepRate*100, n.DeepRate*100, o.StandardRate*100, n.StandardRate*100)
			fmt.Printf("  deepscan cost:     %6.1fx -> %6.1fx p50 vs standard\n", o.CostRatio, n.CostRatio)
			if n.DeepRate < o.DeepRate {
				return fmt.Errorf("evasive detection regression: deep-depth rate %.0f%% -> %.0f%%",
					o.DeepRate*100, n.DeepRate*100)
			}
			fmt.Println("  OK: evasive detection rate did not decrease")
		}
	}

	// End-to-end throughput gate: only when both records carry batch
	// sections (schema/1 onward; serve-only records from -load have none).
	oldTput := oldRec.ParallelCached.DocsPerSec
	newTput := newRec.ParallelCached.DocsPerSec
	if oldTput > 0 && newTput > 0 {
		if newTput < oldTput*docsPerSecTolerance {
			return fmt.Errorf("throughput regression: parallel cached %.2f -> %.2f docs/sec (more than %.0f%% below baseline)",
				oldTput, newTput, (1-docsPerSecTolerance)*100)
		}
		fmt.Println("  OK: no end-to-end docs/sec regression beyond tolerance")
	}

	oldP50 := oldRec.Open.BytecodeWarm.P50Us
	newP50 := newRec.Open.BytecodeWarm.P50Us
	switch {
	case newP50 <= 0 && newRec.Serve != nil:
		// A serve-only record (pdfshield-serve -load) measures the daemon,
		// not the open phase; the open gate does not apply.
		fmt.Printf("  open p50: %s is a serve capacity record; open-phase gate skipped\n", newPath)
		fmt.Println("  OK: serve record compared (no open-phase gate)")
		return nil
	case newP50 <= 0:
		return fmt.Errorf("%s has no open-phase data; cannot gate", newPath)
	case oldP50 <= 0:
		fmt.Printf("  open p50: %s predates the open-phase section; gate skipped (new warm p50 %.0fµs)\n",
			oldPath, newP50)
	default:
		fmt.Printf("  open p50 (warm):   %8.0f -> %8.0f µs (%s)\n", oldP50, newP50, ratio(oldP50, newP50))
		if newP50 > oldP50*openP50Tolerance {
			return fmt.Errorf("open-phase p50 regression: %.0fµs -> %.0fµs (>%.0f%% over baseline)",
				oldP50, newP50, (openP50Tolerance-1)*100)
		}
	}
	fmt.Println("  OK: no open-phase p50 regression beyond tolerance")
	return nil
}
