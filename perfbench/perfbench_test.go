package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pdfshield/internal/corpus"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that every metric BENCHMARK.json names is emitted with its
// unit and a valid name.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rec, res, err := run(wl.Name, 3, 300*time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 || len(rec.Mismatches) != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, parity mismatches %v", wl.Name, trace, res.Attempted, res.Failed, rec.Mismatches)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !validName.MatchString(m.Name) || !validUnit.MatchString(got.Unit):
					t.Errorf("%s: invalid metric name %q or unit %q", wl.Name, m.Name, got.Unit)
				}
			}
		}
	}
}

// TestSeedRegeneratesCorpus checks that one seed always builds the same
// submissions, byte for byte, and that another seed builds others.
func TestSeedRegeneratesCorpus(t *testing.T) {
	for name, wl := range workloads {
		a, b, c := wl.build(11, 300), wl.build(11, 300), wl.build(12, 300)
		if len(a.subs) != 300 || len(b.subs) != 300 {
			t.Fatalf("%s: want 300 submissions, got %d and %d", name, len(a.subs), len(b.subs))
		}
		same := true
		for i := range a.subs {
			if a.subs[i].id != b.subs[i].id || !bytes.Equal(a.subs[i].doc.raw, b.subs[i].doc.raw) {
				t.Fatalf("%s: submission %d differs between two builds of seed 11", name, i)
			}
			same = same && bytes.Equal(a.subs[i].doc.raw, c.subs[i].doc.raw)
		}
		if same {
			t.Errorf("%s: seeds 11 and 12 build the same corpus", name)
		}
		if err := a.checkUniqueIDs(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// familyShares counts submissions (or pool documents) per mix slice.
func familyShares(docs []*doc) map[string]int {
	out := map[string]int{}
	for _, d := range docs {
		switch {
		case d.family == "benign-text":
			out["scriptless"]++
		case evasiveWeights[d.family] > 0:
			out["evasive"]++
		case d.label == corpus.LabelMalicious:
			out["malicious"]++
		default:
			out[d.family]++
		}
	}
	return out
}

// TestSeedKeepsMix checks the stated mix on a seed other than the one
// the workloads were tuned on.
func TestSeedKeepsMix(t *testing.T) {
	const seed = 99
	mixed := buildMixed(seed, 1000)
	var subDocs []*doc
	repeats := 0
	for _, s := range mixed.subs {
		subDocs = append(subDocs, s.doc)
		if s.repeat {
			repeats++
		}
	}
	got := familyShares(subDocs)
	benignJS := len(subDocs) - got["scriptless"] - got["malicious"] - got["evasive"]
	if got["scriptless"] != 700 || benignJS != 170 || got["malicious"] != 100 || got["evasive"] != 30 {
		t.Errorf("mixed_standard mix = %v, want 700 scriptless, 170 benign JS, 100 malicious, 30 evasive", got)
	}
	if repeats < 190 || repeats > 200 {
		t.Errorf("mixed_standard resubmits %d of 1000, want about one in five", repeats)
	}

	inter := familyShares(buildInteractive(seed, 10).docs)
	wantInter := map[string]int{"benign-interactive-js": 96, "benign-nav-js": 48, "benign-multi-js": 36, "benign-encrypted-js": 36, "benign-soap-js": 24}
	for f, n := range wantInter {
		if inter[f] != n {
			t.Errorf("interactive_standard pool has %d %s, want %d (pool %v)", inter[f], f, n, inter)
		}
	}

	scripted := familyShares(buildScripted(seed, 10).docs)
	if scripted["malicious"] != 200 || scripted["evasive"] != 60 || scripted["benign-form-js"] != 0 {
		t.Errorf("scripted_auto pool = %v, want 200 malicious, 60 evasive, no form builders", scripted)
	}
}

// TestMaliciousWeightsCoverCorpus keeps the copied family weights in step
// with the corpus package's family list.
func TestMaliciousWeightsCoverCorpus(t *testing.T) {
	var have []string
	for f := range maliciousWeights {
		have = append(have, f)
	}
	sort.Strings(have)
	want := corpus.MaliciousFamilies()
	sort.Strings(want)
	if strings.Join(have, ",") != strings.Join(want, ",") {
		t.Errorf("maliciousWeights families %v, corpus families %v", have, want)
	}
	var kinds []string
	for k := range evasiveWeights {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	wantKinds := corpus.EvasiveKinds()
	sort.Strings(wantKinds)
	if strings.Join(kinds, ",") != strings.Join(wantKinds, ",") {
		t.Errorf("evasiveWeights kinds %v, corpus kinds %v", kinds, wantKinds)
	}
}

func TestCheckUniqueIDsCatchesDuplicates(t *testing.T) {
	d := &doc{family: "benign-text"}
	st := &stream{warm: []submission{{id: "a", doc: d}}, subs: []submission{{id: "b", doc: d}, {id: "a", doc: d}}}
	if err := st.checkUniqueIDs(); err == nil {
		t.Error("a resubmission under a reused ID passed the uniqueness check")
	}
}
