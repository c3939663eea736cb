package pipeline

import (
	"strings"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
)

// TestStagedSprayConvicts: the reader runs addScript's second argument
// however many follow it, and the last argument of setAction even after a
// trailing comma, so the monitoring wrapper must land on exactly that
// argument. The staged spray then raises its memory feature at every
// depth, not only through triage's static route.
func TestStagedSprayConvicts(t *testing.T) {
	mal, ok := corpus.NewGenerator(5).MaliciousFamily("mal-staged")
	if !ok {
		t.Fatal("family missing")
	}
	_, chains, _, err := instrument.Analyze(mal.Raw)
	if err != nil || len(chains.Chains) != 1 {
		t.Fatalf("mal-staged: %d chains, %v", len(chains.Chains), err)
	}
	src := strings.TrimSpace(chains.Chains[0].Source)
	const prefix = `this.addScript("updater", `
	if !strings.HasPrefix(src, prefix) || !strings.HasSuffix(src, ");") {
		t.Fatalf("unexpected mal-staged script %.40q", src)
	}
	payload := strings.TrimSuffix(strings.TrimPrefix(src, prefix), ");")
	for name, script := range map[string]string{
		"three-arg-addScript":      prefix + payload + `, "x");`,
		"trailing-comma-setAction": "this.setAction(" + payload + ",);",
	} {
		raw := scriptDoc(t, script)
		for _, d := range []Depth{DepthStandard, DepthAuto, DepthDeep} {
			v, err := depthSystem(t, d, nil).ProcessDocumentContext(t.Context(), name+"-"+string(d), raw)
			if err != nil {
				t.Fatalf("%s %s: %v", name, d, err)
			}
			if !v.Malicious {
				t.Errorf("%s %s: staged spray judged benign (route %q)", name, d, v.TriageRoute)
			}
		}
	}
}
