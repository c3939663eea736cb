package triage

import (
	"strings"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
)

// analyze runs the abstract interpreter over one script with defaults.
func analyze(t *testing.T, src string) *analysis {
	t.Helper()
	an := newAnalysis(Config{}.withDefaults())
	an.analyzeScript(src)
	return an
}

// The benign corpus idiom (form plumbing, formatting, report builders,
// navigation) must produce zero signals and zero uncertainty — that is
// the whole fast path.
func TestBenignScriptsAreClean(t *testing.T) {
	scripts := []string{
		`var f = this.getField("total");
var subtotal = 125.50;
var tax = subtotal * 0.08;
f.value = util.printf("%.2f", subtotal + tax);`,
		`var today = util.printd("yyyy/mm/dd", 0);
var f = this.getField("date");
f.value = today;
this.calculateNow();`,
		`function validate(v) {
  if (v < 0 || v > 100) { app.alert("Value out of range"); return 0; }
  return 1;
}
var ok = validate(42);`,
		`var parts = "2013-06-01".split("-");
var year = parseInt(parts[0], 10);
if (isNaN(year)) year = 2013;
var label = year + "/" + parts[1];`,
		`var rows = [];
for (var i = 0; i < 25000; i++) {
  rows[i] = "Row " + i + ": amount=" + (i * 3) + " status=OK";
}
var report = rows.join("\n");
var f = this.getField("report");
f.value = report.substring(0, 200);`,
		`var cells = [];
for (var r = 0; r < 280; r++) {
  var line = "";
  for (var c = 0; c < 55; c++) {
    line += "cell(" + r + "," + c + ");";
  }
  cells[r] = line;
}
var table = cells.join("|");`,
		`this.pageNum = 0; this.syncAnnotScan();`,
		`var v = app.viewerVersion; if (v >= 8) { this.calculateNow(); }`,
		`app.beep(0);`,
		`var total = 0; for (var i = 0; i < this.numPages; i++) total += i;`,
	}
	for i, src := range scripts {
		an := analyze(t, src)
		if len(an.signals) != 0 || len(an.uncertain) != 0 {
			t.Errorf("script %d: signals=%v uncertain=%v, want clean",
				i, sortedKeys(an.signals), sortedKeys(an.uncertain))
		}
	}
}

// The canonical spray (unescape + doubling to heap size + block fill)
// must convict on its own: the Flash/CoolType carriers never call a
// trigger API from Javascript.
func TestSprayShapeConvicts(t *testing.T) {
	src := `
var p = "PAYLOAD:DROP=C:\\tmp\\u.exe|";
var n = unescape("%0c%0c%0c%0c");
while (n.length < 524288) n += n;
var b = [];
for (var i = 0; i < 200; i++) b[i] = n + p;
`
	an := analyze(t, src)
	if !an.signals[SignalSprayGrow] {
		t.Fatalf("spray-grow not detected; signals=%v", sortedKeys(an.signals))
	}
	if an.score() < DefaultMaliciousThreshold {
		t.Fatalf("score %d below threshold %d", an.score(), DefaultMaliciousThreshold)
	}
}

// Each CVE trigger fragment must raise its API-family signal.
func TestTriggerAPIFamilies(t *testing.T) {
	cases := map[string]string{
		`util.printf("%45000f", 0.01);`:                                                              SignalPrintfWidth,
		`util.printf("%18446744073709551716f", 0.01);`:                                               SignalPrintfWidth,
		`var s = unescape("%0a"); while (s.length < 8192) s += s; Collab.getIcon(s + "_N");`:         "api-getIcon",
		`try { media.newPlayer(null); } catch(e) {}`:                                                 "api-newPlayer",
		`var d = unescape("%41"); while (d.length < 8192) d += d; spell.customDictionaryOpen(0, d);`: "api-customDictionaryOpen",
		`this.printSeps();`: "api-printSeps",
		`this.syncAnnotScan(); var an = this.getAnnots({nPage: 0});`: "api-getAnnots",
	}
	for src, want := range cases {
		an := analyze(t, src)
		if !an.signals[want] {
			t.Errorf("%q: signal %q not raised; got %v", src, want, sortedKeys(an.signals))
		}
	}
}

// Small benign printf widths must not trip the exploit signal.
func TestPrintfWidths(t *testing.T) {
	an := analyze(t, `var s = util.printf("%.2f", 1.5); var d = util.printf("Hello, %s", "x");`)
	if an.signals[SignalPrintfWidth] {
		t.Fatal("benign printf width flagged")
	}
}

// eval of a resolvable constant (direct literal or concatenated halves)
// is analyzed recursively: the inner spray still convicts.
func TestEvalLiteralResolves(t *testing.T) {
	inner := `var n = unescape("%0c%0c"); while (n.length < 524288) n += n; this.printSeps();`
	quote := func(s string) string { return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"` }
	half := len(inner) / 2
	for _, src := range []string{
		`eval(` + quote(inner) + `);`,
		`var q = ` + quote(inner[:half]) + ` + ` + quote(inner[half:]) + `;` + "\neval(q);",
	} {
		an := analyze(t, src)
		if !an.signals[SignalSprayGrow] || !an.signals["api-printSeps"] {
			t.Errorf("eval wrapper not penetrated: signals=%v uncertain=%v",
				sortedKeys(an.signals), sortedKeys(an.uncertain))
		}
	}
}

// eval of anything not statically resolvable must mark the script
// uncertain (fail-safe: dynamic tier decides).
func TestEvalDynamicIsUncertain(t *testing.T) {
	an := analyze(t, `var x = this.info.title; eval(x);`)
	if !an.uncertain["eval-dynamic"] {
		t.Fatalf("dynamic eval not flagged: %v", sortedKeys(an.uncertain))
	}
}

// Every staged method's constant code argument, the one the reader runs,
// is analyzed; the inner exploit convicts.
func TestStagingResolves(t *testing.T) {
	inner := `var n = unescape("%0c"); while (n.length < 524288) n += n; this.printSeps();`
	quoted := `"` + strings.ReplaceAll(inner, `"`, `\"`) + `"`
	for _, src := range []string{
		`this.addScript("updater", ` + quoted + `);`,
		`this.addScript("updater", ` + quoted + `, "x");`,
		`app.setTimeOut(` + quoted + `, 3000);`,
		`app.setInterval(` + quoted + `, 3000);`,
		`this.setAction("WillClose", ` + quoted + `);`,
		`this.setPageAction(0, "Open", ` + quoted + `);`,
		`this.getField("btn").setAction("MouseUp", ` + quoted + `);`,
		`this.bookmarkRoot.setAction(` + quoted + `);`,
		`this["addScript"]("n", ` + quoted + `);`,
	} {
		an := analyze(t, src)
		if !an.signals[SignalSprayGrow] {
			t.Errorf("staged body not analyzed: %q signals=%v", src[:32], sortedKeys(an.signals))
		}
	}
	an := analyze(t, `this.setAction("WillClose", this.info.title);`)
	if !an.uncertain["staging-dynamic"] {
		t.Errorf("dynamic setAction body not flagged: %v", sortedKeys(an.uncertain))
	}
}

// Unknown APIs (SOAP.request is the benign corpus's one example) are
// uncertainty, not conviction.
func TestUnknownAPIIsUncertainNotMalicious(t *testing.T) {
	an := analyze(t, `var resp = SOAP.request({cURL: "http://q.example.com", oRequest: {symbol: "ADBE"}});`)
	if len(an.signals) != 0 {
		t.Fatalf("unknown API raised signals: %v", sortedKeys(an.signals))
	}
	if !an.uncertain["api-unknown:SOAP.request"] {
		t.Fatalf("unknown API not flagged: %v", sortedKeys(an.uncertain))
	}
}

// Budget exhaustion and parse failures are fail-safe markers.
func TestFailSafeMarkers(t *testing.T) {
	an := newAnalysis(Config{NodeBudget: 10}.withDefaults())
	an.cfg.NodeBudget = 10
	an.analyzeScript(`var a = 1; var b = 2; var c = 3; var d = 4; var e = 5; var f = 6;`)
	if !an.uncertain["node-budget"] {
		t.Fatalf("budget blowup not flagged: %v", sortedKeys(an.uncertain))
	}
	an2 := analyze(t, `var = ;`)
	if !an2.uncertain["js-parse-error"] {
		t.Fatalf("parse error not flagged: %v", sortedKeys(an2.uncertain))
	}
	an3 := analyze(t, "")
	if !an3.uncertain["empty-script"] {
		t.Fatalf("empty script not flagged: %v", sortedKeys(an3.uncertain))
	}
}

func TestCensusNameBoundaries(t *testing.T) {
	raw := []byte("/AA /AAPL /OpenAction /OpenActionX /Launch\n%%EOF\ntrailer\n%%EOF\n")
	c := TakeCensus(raw, nil)
	if c.Names.AA != 1 {
		t.Errorf("AA count = %d, want 1", c.Names.AA)
	}
	if c.Names.OpenAction != 1 {
		t.Errorf("OpenAction count = %d, want 1", c.Names.OpenAction)
	}
	if c.Names.Launch != 1 {
		t.Errorf("Launch count = %d, want 1", c.Names.Launch)
	}
	if c.EOFMarkers != 2 {
		t.Errorf("EOF count = %d, want 2", c.EOFMarkers)
	}
	if !hasFlag(c.Flags, "multiple-eof") || !hasFlag(c.Flags, "name-launch") {
		t.Errorf("flags = %v", c.Flags)
	}
	if !hasFlag(c.Flags, "no-analysis") {
		t.Errorf("nil result not flagged: %v", c.Flags)
	}
}

func TestCensusEntropy(t *testing.T) {
	if e := shannonEntropy([]byte(strings.Repeat("a", 1024))); e != 0 {
		t.Errorf("uniform entropy = %f, want 0", e)
	}
	all := make([]byte, 4096)
	for i := range all {
		all[i] = byte(i)
	}
	if e := shannonEntropy(all); e < 7.9 {
		t.Errorf("full-byte entropy = %f, want ~8", e)
	}
}

func hasFlag(flags []string, f string) bool {
	for _, x := range flags {
		if x == f {
			return true
		}
	}
	return false
}

// resultFor runs the real static front end (parse + chain reconstruction
// + feature extraction) so Evaluate sees exactly what the pipeline hands
// it, minus instrumentation.
func resultFor(t *testing.T, raw []byte) *instrument.Result {
	t.Helper()
	feats, chains, doc, err := instrument.Analyze(raw)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return &instrument.Result{
		Features:    feats,
		Chains:      chains,
		Recovered:   doc.Recovered,
		ObjectCount: chains.TotalObjects,
	}
}

// Every malicious corpus family must route malicious or uncertain —
// never confident-benign — across seeds. Families whose exploit lives in
// the host's own scripts must convict statically.
func TestEvaluateMaliciousFamiliesNeverBenign(t *testing.T) {
	staticallyConvictable := map[string]bool{
		"mal-printf": true, "mal-geticon": true, "mal-newplayer": true,
		"mal-customdict": true, "mal-printseps": true, "mal-flash": true,
		"mal-cooltype": true, "mal-egghunt": true, "mal-driveby": true,
		"mal-staged": true, "mal-delayed": true, "mal-titlehidden": true,
		"mal-crasher": true, "mal-crasher-clean": true,
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := corpus.NewGenerator(seed)
		for _, fam := range corpus.MaliciousFamilies() {
			s, ok := g.MaliciousFamily(fam)
			if !ok {
				t.Fatalf("unknown family %s", fam)
			}
			d := Evaluate(Config{}, s.Raw, resultFor(t, s.Raw))
			if d.Route == RouteBenign {
				t.Errorf("seed %d %s: routed confident-benign (score=%d signals=%v uncertain=%v)",
					seed, fam, d.Score, d.Signals, d.Uncertain)
			}
			if staticallyConvictable[fam] && d.Route != RouteMalicious {
				t.Errorf("seed %d %s: route=%s score=%d signals=%v uncertain=%v, want malicious",
					seed, fam, d.Route, d.Score, d.Signals, d.Uncertain)
			}
		}
	}
}

// The benign JS population must never convict, and the bulk of it must
// take the fast path (that is where the ≥2x docs/sec comes from).
func TestEvaluateBenignPopulation(t *testing.T) {
	g := corpus.NewGenerator(7)
	samples := g.BenignWithJS(60)
	benign := 0
	for _, s := range samples {
		d := Evaluate(Config{}, s.Raw, resultFor(t, s.Raw))
		if d.Route == RouteMalicious {
			t.Errorf("%s (%s): routed malicious (score=%d signals=%v)", s.ID, s.Family, d.Score, d.Signals)
		}
		if d.Route == RouteBenign {
			benign++
		}
	}
	if benign*2 < len(samples) {
		t.Fatalf("only %d/%d benign JS docs took the fast path", benign, len(samples))
	}
}

// A scriptless or chain-less result can never route benign (fail-safe).
func TestEvaluateNoScriptsNeverBenign(t *testing.T) {
	d := Evaluate(Config{}, []byte("%PDF-1.4\n%%EOF\n"), &instrument.Result{})
	if d.Route == RouteBenign {
		t.Fatal("scriptless result routed benign")
	}
}
