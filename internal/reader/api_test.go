package reader

import (
	"strings"
	"testing"

	"pdfshield/internal/hook"
	"pdfshield/internal/pdf"
)

// openScript runs one script in a fresh process and returns the result.
func openScript(t *testing.T, version float64, sink hook.Sink, script string) (*Process, *OpenResult) {
	t.Helper()
	cfg := Config{ViewerVersion: version}
	if sink != nil {
		cfg.Sink = sink
	}
	p := NewProcess(cfg)
	res, err := p.Open("t", buildJSDoc(t, script), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestAppAPIs(t *testing.T) {
	_, res := openScript(t, 9.0, nil, `
if (app.viewerVersion != 9) throw "version";
if (app.viewerType != "Reader") throw "type";
if (app.platform != "WIN") throw "platform";
var clicked = app.alert("hello");
if (clicked != 1) throw "alert return";
app.beep(0);
app.clearTimeOut(1);
app.launchURL("http://example.com");
app.mailMsg(true, "a@example.com");
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
}

func TestLaunchURLNotMonitored(t *testing.T) {
	// launchURL/mailMsg delegate to third-party apps: no hooked connect.
	sink := &hook.RecordingSink{}
	_, res := openScript(t, 9.0, sink, `app.launchURL("http://x.test"); app.mailMsg(true, "a@b");`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
	if len(sink.Events()) != 0 {
		t.Errorf("third-party launches produced hooked events: %+v", sink.Events())
	}
}

func TestUtilBenignPaths(t *testing.T) {
	_, res := openScript(t, 9.0, nil, `
var s = util.printf("x=%d y=%s z=%f", 7, "ok", 1.5);
if (s.indexOf("x=7") < 0) throw "printf: " + s;
if (s.indexOf("y=ok") < 0) throw "printf s";
var d = util.printd("yyyy/mm/dd", 0);
if (d.length < 8) throw "printd";
var c = util.byteToChar(65);
if (c != "A") throw "byteToChar";
var pct = util.printf("100%%");
if (pct != "100%") throw "percent: " + pct;
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
}

func TestDocAPIs(t *testing.T) {
	_, res := openScript(t, 9.0, nil, `
if (this.numPages != 1) throw "numPages " + this.numPages;
var f = this.getField("total");
f.value = "12.5";
if (f.value != "12.5") throw "field value";
this.calculateNow();
this.syncAnnotScan();
var bm = this.bookmarkRoot;
if (bm.name != "root") throw "bookmark";
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
}

func TestBookmarkSetActionStaged(t *testing.T) {
	p, res := openScript(t, 9.0, nil, `
this.bookmarkRoot.setAction("staged = 7;");
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
	if res.JSRuns != 2 {
		t.Errorf("JSRuns = %d, want 2 (main + bookmark action)", res.JSRuns)
	}
	_ = p
}

func TestFieldSetActionStaged(t *testing.T) {
	_, res := openScript(t, 9.0, nil, `
var f = this.getField("btn");
f.setAction("MouseUp", "fieldStage = 1;");
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
	if res.JSRuns != 2 {
		t.Errorf("JSRuns = %d", res.JSRuns)
	}
}

func TestBenignMediaAndSpell(t *testing.T) {
	_, res := openScript(t, 9.0, nil, `
var player = media.newPlayer({url: "movie.mp4"});
if (typeof player != "object") throw "player";
spell.customDictionaryOpen(0, "en-US");
Collab.getIcon("small.png");
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("benign media/spell paths errored: %v", res.ScriptErrors)
	}
}

func TestDocInfoFromPDF(t *testing.T) {
	d := pdf.NewDocument()
	jsRef := d.Add(pdf.String{Value: []byte(`
if (this.info.title != "My Title") throw "title: " + this.info.title;
if (this.info.author != "Alice") throw "author";
`)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef})
	info := d.Add(pdf.Dict{
		"Title":  pdf.String{Value: []byte("My Title")},
		"Author": pdf.String{Value: []byte("Alice")},
	})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	d.Trailer["Info"] = info
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{ViewerVersion: 9.0})
	res, err := p.Open("info", raw, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
}

func TestGetAnnotsRecordsNotVulnerable(t *testing.T) {
	_, res := openScript(t, 9.0, nil, `var a = this.getAnnots({nPage: 0}); if (a.length != 0) throw "annots";`)
	if len(res.Exploits) != 1 || res.Exploits[0].CVE != CVE20091492 || res.Exploits[0].Stage != StageNotVulnerable {
		t.Errorf("exploits = %+v", res.Exploits)
	}
}

func TestMemorySampleEmittedDuringSpray(t *testing.T) {
	sink := &hook.RecordingSink{}
	_, res := openScript(t, 9.0, sink, `
var s = unescape("%0c%0c%0c%0c");
while (s.length < 524288) s += s;
var blocks = [];
for (var i = 0; i < 80; i++) blocks[i] = s + "x";
`)
	if len(res.ScriptErrors) != 0 {
		t.Fatalf("errors: %v", res.ScriptErrors)
	}
	samples := 0
	var lastMem float64
	for _, ev := range sink.Events() {
		if ev.Behavior() == hook.BehaviorMemorySample {
			samples++
			lastMem = ev.MemMB
		}
	}
	// ~80 MB of allocations at a 32 MB sampling step -> at least 2 samples.
	if samples < 2 {
		t.Errorf("memory samples = %d, want >= 2", samples)
	}
	if lastMem < 60 {
		t.Errorf("last sampled memory = %.1f MB", lastMem)
	}
}

func TestMaxFormatWidth(t *testing.T) {
	tests := []struct {
		format string
		want   int
	}{
		{"%d", 0},
		{"%5d", 5},
		{"%45000f", 45000},
		{"a %3s b %7d", 7},
		{"no verbs", 0},
		// Widths too long to represent saturate instead of wrapping
		// (2^64+100 once wrapped to 100).
		{"%18446744073709551716f", formatWidthCap},
		{"%99999999999999999999999999f", formatWidthCap},
	}
	for _, tt := range tests {
		if got := MaxFormatWidth(tt.format); got != tt.want {
			t.Errorf("MaxFormatWidth(%q) = %d, want %d", tt.format, got, tt.want)
		}
	}
}

func TestHostOf(t *testing.T) {
	tests := []struct{ url, want string }{
		{"http://a.test/x", "a.test:80"},
		{"https://b.test:8443/y", "b.test:8443"},
		{"c.test:99", "c.test:99"},
		{"d.test", "d.test:80"},
	}
	for _, tt := range tests {
		if got := hostOf(tt.url); got != tt.want {
			t.Errorf("hostOf(%q) = %q, want %q", tt.url, got, tt.want)
		}
	}
}

func TestMiniSprintfEdge(t *testing.T) {
	out := miniSprintf("%x", nil)
	if !strings.Contains(out, "0") {
		t.Errorf("missing-arg %%x = %q", out)
	}
}
