package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pdfshield/internal/attack"
	"pdfshield/internal/corpus"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/triage"
)

// The detection gate pins the paper's verdict (Table VIII: no false
// positives, near-total detection of working samples) on the current tree,
// at every scan depth. Each document's verdict is checked, so a new false
// negative or false positive fails the test by name; expected misses are
// listed by document ID, never as a rate.

// gateScale is the corpus scale of the gate: Table VIII at 0.1 is 99
// benign-with-JS and 100 malicious documents.
const gateScale = 0.1

// gateEvasiveSeeds is how many seeds of each evasive family the gate scans.
const gateEvasiveSeeds = 3

// gateMimics is the number of Table IX structural-mimicry samples.
const gateMimics = 12

// gateDoc is one gate document and the viewer version it opens on.
type gateDoc struct {
	corpus.Sample
	viewer float64
}

// gateFamily pins one family's document count and its convictions at
// standard, auto and deep depth.
type gateFamily struct {
	docs, standard, auto, deep int
}

func (f gateFamily) convicted(d pipeline.Depth) int {
	switch d {
	case pipeline.DepthStandard:
		return f.standard
	case pipeline.DepthAuto:
		return f.auto
	default:
		return f.deep
	}
}

// gateFamilies is the pinned per-family confusion matrix: 99 benign and
// 122 malicious documents. Benign families are never convicted. The
// evasive families (emucheck, envgate, timebomb) are 0/9 at standard,
// where their gates stay shut, and 9/9 once forced execution opens them.
// Every structural mimic is convicted at every depth.
var gateFamilies = map[string]gateFamily{
	"benign-encrypted-js": {12, 0, 0, 0},
	"benign-form-js":      {57, 0, 0, 0},
	"benign-multi-js":     {7, 0, 0, 0},
	"benign-nav-js":       {11, 0, 0, 0},
	"benign-soap-js":      {12, 0, 0, 0},
	"mal-cooltype":        {7, 7, 7, 7},
	"mal-crasher":         {2, 2, 2, 2},
	"mal-crasher-clean":   {4, 0, 4, 4},
	"mal-customdict":      {9, 9, 9, 9},
	"mal-delayed":         {1, 1, 1, 1},
	"mal-driveby":         {2, 2, 2, 2},
	"mal-egghunt":         {3, 3, 3, 3},
	"mal-embedded":        {1, 1, 1, 1},
	"mal-emucheck":        {3, 0, 3, 3},
	"mal-envgate":         {3, 0, 3, 3},
	"mal-flash":           {8, 8, 8, 8},
	"mal-getannots":       {6, 0, 6, 5},
	"mal-geticon":         {13, 13, 13, 13},
	"mal-mimicry":         {12, 12, 12, 12},
	"mal-newplayer":       {9, 9, 9, 9},
	"mal-printf":          {18, 18, 18, 18},
	"mal-printseps":       {8, 8, 8, 8},
	"mal-staged":          {4, 4, 4, 4},
	"mal-timebomb":        {3, 0, 3, 3},
	"mal-titlehidden":     {4, 4, 4, 4},
	"mal-xfa":             {2, 0, 2, 0},
}

// gateMisses names every malicious-labelled document allowed to go
// unconvicted at each depth; any other miss fails the gate, and so does
// the conviction of a listed one. Auto convicts everything: the triage
// tier convicts the version-gated and crashing samples statically and
// escalates the evasive ones to a deep scan.
var gateMisses = map[pipeline.Depth][]string{
	pipeline.DepthStandard: {
		// OutcomeCrash: the exploit crashes the reader before any
		// infection attempt (the paper's false negatives).
		"mal-crasher-clean-00105", "mal-crasher-clean-00116",
		"mal-crasher-clean-00126", "mal-crasher-clean-00185",
		// OutcomeNoop: the script runs only on viewers 9.05..9.2 and
		// does nothing on 8.0 or 9.0 (Table VIII noise).
		"mal-getannots-00044", "mal-getannots-00103", "mal-getannots-00112",
		"mal-getannots-00123", "mal-getannots-00167", "mal-getannots-00178",
		// OutcomeNoop: targets Reader 11 (Table VIII noise).
		"mal-xfa-00169", "mal-xfa-00191",
		// Evasive gates that a single natural open never opens.
		"mal-emucheck-00001-r0", "mal-emucheck-00001-r1", "mal-emucheck-00001-r2",
		"mal-envgate-00001-r0", "mal-envgate-00001-r1", "mal-envgate-00001-r2",
		"mal-timebomb-00001-r0", "mal-timebomb-00001-r1", "mal-timebomb-00001-r2",
	},
	pipeline.DepthDeep: {
		// Forcing the version gate sprays past F8 (w2 = 9), but this
		// document carries no static feature, so malscore 9 < 10.
		"mal-getannots-00123",
		// The forced Reader-11 branch sprays 60 MB, under F8's 100 MB
		// cutoff, and triggers no exploit.
		"mal-xfa-00169", "mal-xfa-00191",
	},
}

var gateDepths = []pipeline.Depth{pipeline.DepthStandard, pipeline.DepthAuto, pipeline.DepthDeep}

// gateCorpus builds the gate population from cfg's seed: Table VIII's
// benign (viewer 9.0) and malicious (viewer 8.0) corpora, every evasive
// family at gateEvasiveSeeds seeds (viewer 9.0), the Table IX mimicry
// samples (viewer 8.0), and the version-gated getannots document named
// below.
func gateCorpus(cfg Config) []gateDoc {
	seed := cfg.seed()
	var docs []gateDoc
	add := func(viewer float64, samples ...corpus.Sample) {
		for _, s := range samples {
			docs = append(docs, gateDoc{Sample: s, viewer: viewer})
		}
	}
	g := corpus.NewGenerator(seed + 88) // Table VIII's generator
	add(9.0, g.BenignWithJS(cfg.scaled(994, 40))...)
	add(8.0, g.MaliciousBatch(cfg.scaled(1000, 40))...)
	for i, kind := range corpus.EvasiveKinds() {
		for r := 0; r < gateEvasiveSeeds; r++ {
			s, ok := corpus.NewGenerator(seed + int64(100*i+r)).Evasive(kind)
			if !ok {
				panic("gate: unknown evasive kind " + kind)
			}
			// Each replica's generator numbers from 1 again.
			s.ID = fmt.Sprintf("%s-r%d", s.ID, r)
			add(9.0, s)
		}
	}
	for i := 0; i < gateMimics; i++ {
		add(8.0, attack.MimicrySample(seed+int64(i)*17))
	}
	add(9.0, getAnnotsVersionGated(seed))
	return docs
}

// getAnnotsVersionGated rebuilds mal-getannots-00044: the malicious
// document of a 40 benign-with-JS + 8 malicious mix that a natural open
// on viewer 9.0 misses. Its script runs only when
// 9.05 < app.viewerVersion < 9.2, so on 9.0 it does nothing (OutcomeNoop,
// Table VIII noise by design, not a false negative). The triage tier
// convicts it statically, and forced execution opens the version gate.
func getAnnotsVersionGated(seed int64) corpus.Sample {
	g := corpus.NewGenerator(seed)
	g.BenignWithJS(40)
	for _, s := range g.MaliciousBatch(8) {
		if s.ID == "mal-getannots-00044" {
			return s
		}
	}
	panic("gate: mal-getannots-00044 not in the mix")
}

// runGate scans docs at one depth, one System per viewer version (seeded
// like Table VIII's), and returns the verdicts by document ID and the
// number of failed documents.
func runGate(t *testing.T, cfg Config, docs []gateDoc, depth pipeline.Depth) (map[string]*pipeline.Verdict, int) {
	t.Helper()
	verdicts := make(map[string]*pipeline.Verdict, len(docs))
	failed := 0
	for i, viewer := range []float64{9.0, 8.0} {
		var samples []corpus.Sample
		for _, d := range docs {
			if d.viewer == viewer {
				samples = append(samples, d.Sample)
			}
		}
		sys, err := pipeline.NewSystem(pipeline.Options{
			ViewerVersion: viewer, Seed: cfg.seed() + int64(i+1), Depth: depth, Obs: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		vs, f := batchVerdicts(sys, samples, 2)
		_ = sys.Close()
		failed += f
		for _, v := range vs {
			verdicts[v.DocID] = v
		}
	}
	return verdicts, failed
}

// TestDetectionGate runs the gate corpus at standard, auto and deep depth
// and checks every verdict against the pinned matrix.
func TestDetectionGate(t *testing.T) {
	cfg := Config{Scale: gateScale}
	docs := gateCorpus(cfg)

	ids := make(map[string]bool, len(docs))
	for _, d := range docs {
		if ids[d.ID] {
			t.Fatalf("duplicate doc ID %q", d.ID)
		}
		ids[d.ID] = true
	}

	byDepth := make(map[pipeline.Depth]map[string]*pipeline.Verdict, len(gateDepths))
	for _, depth := range gateDepths {
		verdicts, failed := runGate(t, cfg, docs, depth)
		if failed != 0 {
			t.Errorf("%s: %d failed documents, want 0", depth, failed)
		}
		byDepth[depth] = verdicts

		got := make(map[string]familyCount)
		var misses []string
		for _, d := range docs {
			v := verdicts[d.ID]
			if v == nil {
				t.Errorf("%s: %s has no verdict", depth, d.ID)
				continue
			}
			c := got[d.Family]
			c.docs++
			if v.Malicious {
				c.convicted++
			}
			got[d.Family] = c
			mal := d.Label == corpus.LabelMalicious
			switch {
			case !mal && v.Malicious:
				t.Errorf("%s: false positive %s (%s)", depth, d.ID, d.Family)
			case mal && !v.Malicious:
				misses = append(misses, d.ID)
			}
			if mal && v.TriageRoute == string(triage.RouteBenign) {
				t.Errorf("%s: malicious %s (%s) routed benign", depth, d.ID, d.Family)
			}
		}
		checkFamilies(t, depth, got)
		checkMisses(t, depth, misses)
	}

	// Escalation may add convictions, never drop one.
	for id, v := range byDepth[pipeline.DepthStandard] {
		if !v.Malicious {
			continue
		}
		for _, depth := range gateDepths[1:] {
			if w := byDepth[depth][id]; w != nil && !w.Malicious {
				t.Errorf("%s convicted at standard but not at %s", id, depth)
			}
		}
	}
}

// familyCount is one family's documents and convictions at one depth.
type familyCount struct{ docs, convicted int }

// checkFamilies compares one depth's per-family convictions with
// gateFamilies.
func checkFamilies(t *testing.T, depth pipeline.Depth, got map[string]familyCount) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	for name := range gateFamilies {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []string
	for _, name := range names {
		g, want := got[name], gateFamilies[name]
		rows = append(rows, fmt.Sprintf("%s %d/%d", name, g.convicted, g.docs))
		if g.docs != want.docs || g.convicted != want.convicted(depth) {
			t.Errorf("%s: %s convicted %d/%d, want %d/%d", depth, name, g.convicted, g.docs, want.convicted(depth), want.docs)
		}
	}
	t.Logf("%s: %s", depth, strings.Join(rows, ", "))
}

// checkMisses compares one depth's unconvicted malicious documents with
// gateMisses.
func checkMisses(t *testing.T, depth pipeline.Depth, misses []string) {
	t.Helper()
	want := make(map[string]bool)
	for _, id := range gateMisses[depth] {
		want[id] = true
	}
	for _, id := range misses {
		if !want[id] {
			t.Errorf("%s: new false negative %s", depth, id)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("%s: expected miss %s is now convicted; update gateMisses", depth, id)
	}
	sort.Strings(misses)
	t.Logf("%s: %d misses %q", depth, len(misses), misses)
}
