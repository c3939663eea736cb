package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
)

// tinyCfg keeps experiment tests fast; the cmd harness runs real scales.
var tinyCfg = Config{Scale: 0.01, Seed: 7}

func TestTableV(t *testing.T) {
	res := TableV(tinyCfg)
	if len(res.Tables) != 1 {
		t.Fatal("no table")
	}
	tab := res.Tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "Known Malicious") {
		t.Error("render missing category")
	}
}

func TestFigure6ShapeHolds(t *testing.T) {
	res := Figure6(tinyCfg)
	fig := res.Figures[0]
	if len(fig.Lines) != 2 {
		t.Fatal("want 2 CDF lines")
	}
	// The separation claim: malicious mostly >= 0.2, benign mostly < 0.2.
	notes := strings.Join(fig.Notes, "\n")
	if !strings.Contains(notes, "malicious with ratio >= 0.2") {
		t.Errorf("notes missing: %s", notes)
	}
	var malAt02, benAt02 float64
	for _, line := range fig.Lines {
		frac := cdfAt(line, 0.2)
		if line.Name == "malicious" {
			malAt02 = frac
		} else {
			benAt02 = frac
		}
	}
	// CDF at 0.2: benign should be high (most below), malicious low.
	if benAt02 < 0.6 {
		t.Errorf("benign CDF(0.2) = %.2f, want high", benAt02)
	}
	if malAt02 > 0.4 {
		t.Errorf("malicious CDF(0.2) = %.2f, want low", malAt02)
	}
}

func cdfAt(line Line, x float64) float64 {
	frac := 0.0
	for i := range line.X {
		if line.X[i] < x {
			frac = line.Y[i]
		}
	}
	return frac
}

func TestTableVI(t *testing.T) {
	res := TableVI(Config{Scale: 0.05, Seed: 7})
	tab := res.Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Header obfuscation: most samples unobfuscated (column 0 > column 1).
	r := tab.Rows[0]
	if !(atoiT(t, r[1]) > atoiT(t, r[2])) {
		t.Errorf("header obf distribution inverted: %v", r)
	}
	// Encoding level: single-level dominates.
	enc := tab.Rows[3]
	if !(atoiT(t, enc[2]) > atoiT(t, enc[1])) {
		t.Errorf("encoding distribution off: %v", enc)
	}
}

func atoiT(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func TestFigure7Separation(t *testing.T) {
	res := Figure7(tinyCfg)
	fig := res.Figures[0]
	var mal, ben Line
	for _, l := range fig.Lines {
		if l.Name == "malicious" {
			mal = l
		} else {
			ben = l
		}
	}
	if len(mal.Y) == 0 || len(ben.Y) == 0 {
		t.Fatal("missing lines")
	}
	if minOf(mal.Y) < 50 {
		t.Errorf("malicious min = %.1f MB, want >> benign", minOf(mal.Y))
	}
	if maxOf(ben.Y) > 25 {
		t.Errorf("benign max = %.1f MB, want small", maxOf(ben.Y))
	}
	if mean(mal.Y) < 10*mean(ben.Y) {
		t.Errorf("separation too weak: mal avg %.1f, benign avg %.1f", mean(mal.Y), mean(ben.Y))
	}
}

func TestFigure8LinearWithDrop(t *testing.T) {
	res := Figure8(tinyCfg)
	fig := res.Figures[0]
	if len(fig.Lines) != 4 {
		t.Fatalf("lines = %d", len(fig.Lines))
	}
	// The optimize-hint line must show a non-monotonic drop; the others
	// grow monotonically.
	drops := 0
	for _, line := range fig.Lines {
		for i := 1; i < len(line.Y); i++ {
			if line.Y[i] < line.Y[i-1] {
				drops++
			}
		}
	}
	if drops == 0 {
		t.Error("no optimization drop observed in any line")
	}
	if drops > 3 {
		t.Errorf("too many drops (%d); growth should be mostly linear", drops)
	}
}

func TestTableVIIIAccuracy(t *testing.T) {
	res, acc := TableVIII(tinyCfg)
	if len(res.Tables) != 1 {
		t.Fatal("no table")
	}
	if acc.Failed != 0 {
		t.Errorf("failed documents = %d, want 0", acc.Failed)
	}
	if acc.BenignFlagged != 0 {
		t.Errorf("false positives = %d, want 0 (paper)", acc.BenignFlagged)
	}
	if acc.DetectionRate() < 0.85 {
		t.Errorf("detection rate = %.2f, want >= 0.85 (paper 97.3%%)", acc.DetectionRate())
	}
	if acc.MalNoise == 0 {
		t.Log("no noise samples at this tiny scale (paper: 5.8%)")
	}
}

// TestBatchVerdictsCountsFailures feeds one garbage document among valid
// ones: it must come back as a failure, not silently vanish.
func TestBatchVerdictsCountsFailures(t *testing.T) {
	samples := corpus.NewGenerator(7).BenignWithJS(3)
	samples = append(samples[:1], append([]corpus.Sample{{ID: "garbage", Raw: []byte("%PDF-1.4 garbage")}}, samples[1:]...)...)
	sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: 9.0, Seed: 7, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	verdicts, failed := batchVerdicts(sys, samples, 2)
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d, want 3", len(verdicts))
	}
	for i, want := range []string{samples[0].ID, samples[2].ID, samples[3].ID} {
		if verdicts[i].DocID != want {
			t.Errorf("verdict %d is %s, want %s", i, verdicts[i].DocID, want)
		}
	}
}

func TestTableVIIandRender(t *testing.T) {
	res := TableVII(tinyCfg)
	out := res.Render()
	for _, want := range []string{"w1", "w2", "Threshold", "100 MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTableX(t *testing.T) {
	res := TableX(tinyCfg)
	tab := res.Tables[0]
	if len(tab.Rows) != len(tableXSizes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(tableXSizes))
	}
	// Total time grows from smallest to largest size class.
	first := parseF(t, tab.Rows[0][4])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][4])
	if last <= first {
		t.Errorf("timing not growing with size: %v .. %v", first, last)
	}
}

func TestTableXI(t *testing.T) {
	res := TableXI(tinyCfg)
	tab := res.Tables[0]
	if len(tab.Rows) != len(tableXSizes) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	firstObjs := atoiT(t, strings.Fields(tab.Rows[0][1])[0])
	lastObjs := atoiT(t, strings.Fields(tab.Rows[len(tab.Rows)-1][1])[0])
	if lastObjs <= firstObjs {
		t.Errorf("object count not growing: %d .. %d", firstObjs, lastObjs)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmtSscan(s, &f); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return f
}

func TestSecurityAnalysisAllHold(t *testing.T) {
	res := SecurityAnalysis(tinyCfg)
	tab := res.Tables[0]
	if len(tab.Rows) < 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.Render()
	if strings.Contains(out, "NOT DETECTED") || strings.Contains(out, "ATTACK SUCCEEDED") {
		t.Errorf("a defense failed:\n%s", out)
	}
}

func TestRuntimeOverheadLinearAndSmall(t *testing.T) {
	res := RuntimeOverhead(tinyCfg)
	fig := res.Figures[0]
	line := fig.Lines[0]
	if len(line.Y) < 10 {
		t.Fatalf("points = %d", len(line.Y))
	}
	if last := line.Y[len(line.Y)-1]; last > 2.0 {
		t.Errorf("20-script overhead = %.2f s, paper bound is < 2 s", last)
	}
}

// fmtSscan avoids importing fmt solely in one helper.
func fmtSscan(s string, f *float64) (int, error) {
	return fmt.Sscan(s, f)
}
