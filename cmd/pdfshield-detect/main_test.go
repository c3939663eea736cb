package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdfshield/internal/attack"
	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
)

// titleExploit is a working exploit (spray, printf overflow, dropper)
// that scriptDoc hides in the document title: triage cannot see it, so
// even at auto it reaches the reader and alerts on malscore.
const titleExploit = `var p = "PAYLOAD:DROP=C:\\tmp\\mm.exe;EXEC=C:\\tmp\\mm.exe|";
var n = unescape("%0c%0c%0c%0c");
while (n.length < 524288) n += n;
var b = [];
for (var i = 0; i < 230; i++) b[i] = n + p;
util.printf("%45000f", 0.01);`

// scriptDoc builds a minimal PDF whose OpenAction runs script, with title
// as its Info title when non-empty.
func scriptDoc(t *testing.T, script, title string) []byte {
	t.Helper()
	d := pdf.NewDocument()
	jsRef := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsRef})
	d.Trailer["Root"] = d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	if title != "" {
		d.Trailer["Info"] = d.Add(pdf.Dict{"Title": pdf.String{Value: []byte(title)}})
	}
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decoyKey instruments a victim document under sys and returns a key
// SignatureKeySearch finds in its monitoring code that is not the real
// one: the detector ID is right, the instrumentation key is unknown.
func decoyKey(t *testing.T, sys *pipeline.System) string {
	t.Helper()
	res, err := sys.Instrumenter.InstrumentBytes("victim", scriptDoc(t, "var x = 1;", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Instrumenter.Forget(res.Key.InstrKey)
	doc, err := pdf.Parse(res.Output, pdf.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chains.Chains {
		for _, k := range attack.SignatureKeySearch(c.Source) {
			if k != res.Key.String() {
				return k
			}
		}
	}
	t.Fatal("no decoy key in the monitoring code")
	return ""
}

// recordBatch scans a mixed batch at depth into a journal file: benign
// JS, malicious and evasive families, the title-hidden exploit, and two
// forged-exit documents, one with a decoy key and one with a foreign
// detector ID.
func recordBatch(t *testing.T, depth pipeline.Depth) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	jw, err := journal.Create(path, journal.Options{Session: "record"})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pipeline.NewSystem(pipeline.Options{Seed: 61, Journal: jw, Obs: obs.NewRegistry(), Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	g := corpus.NewGenerator(61)
	var docs []pipeline.BatchDoc
	add := func(s corpus.Sample) { docs = append(docs, pipeline.BatchDoc{ID: s.ID, Raw: s.Raw}) }
	for _, s := range g.MaliciousBatch(4) {
		add(s)
	}
	for _, kind := range corpus.EvasiveKinds()[:2] {
		s, _ := g.Evasive(kind)
		add(s)
	}
	for _, s := range g.BenignWithJS(3) {
		add(s)
	}
	add(g.BenignSOAPJS())
	docs = append(docs, pipeline.BatchDoc{ID: "title-exploit", Raw: scriptDoc(t, "eval(this.info.title);", titleExploit)})
	forged := map[string]string{
		"forged-decoy":   decoyKey(t, sys),
		"forged-foreign": "0123456789abcdef01234567:deadbeefdeadbeefdeadbeef",
	}
	for id, key := range forged {
		docs = append(docs, pipeline.BatchDoc{ID: id, Raw: scriptDoc(t, attack.ForgedExitScript(instrument.DefaultEndpoint, key, "var y = 2;"), "")})
	}

	res := sys.ProcessBatchContext(t.Context(), docs, pipeline.BatchOptions{Workers: 2})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed: %v", n, res.Errors)
	}
	for _, v := range res.Verdicts {
		if _, ok := forged[v.DocID]; ok && (!v.Malicious || v.Alert.Reason != "fake-message") {
			t.Fatalf("%s: verdict %+v, want a fake-message conviction", v.DocID, v)
		}
		if v.DocID == "title-exploit" && (!v.Malicious || v.Alert.Reason != "malscore") {
			t.Fatalf("%s: verdict %+v, want a malscore conviction", v.DocID, v)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// rewrite writes events to a new journal file after applying tamper to
// the first event it accepts, and fails the test when none does. tamper
// must replace a payload it changes, not write through its pointer.
func rewrite(t *testing.T, events []journal.Event, tamper func(*journal.Event) bool) string {
	t.Helper()
	var buf bytes.Buffer
	done := false
	for _, e := range events {
		if !done && tamper(&e) {
			done = true
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if !done {
		t.Fatal("no event to tamper with")
	}
	path := filepath.Join(t.TempDir(), "tampered.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayRecordedBatches: a pipeline journal replays through
// runReplay with no registry, at auto and at deep, covering malscore
// alerts and both kinds of fake message; a copy with one hook decision or
// one statically routed verdict flipped fails.
func TestReplayRecordedBatches(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, depth := range []pipeline.Depth{pipeline.DepthAuto, pipeline.DepthDeep} {
		t.Run(string(depth), func(t *testing.T) {
			path := recordBatch(t, depth)
			recorded, err := journal.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			causes := map[string]bool{}
			for _, e := range recorded {
				switch {
				case e.T == journal.TypeFakeMessage:
					causes[strings.SplitN(e.Cause, " ", 2)[0]] = true
				case e.T == journal.TypeAlert && e.Alert.Reason == "malscore":
					causes["malscore"] = true
				}
			}
			for _, want := range []string{"malscore", "unknown", "foreign"} {
				if !causes[want] {
					t.Fatalf("recording lacks a %s alert or fake message: %v", want, causes)
				}
			}

			var out bytes.Buffer
			if err := runReplay(&out, path, depth, logger); err != nil {
				t.Fatalf("replay: %v\n%s", err, out.String())
			}
			wants := []string{"replay verified", "deep-scan verified"}
			if depth == pipeline.DepthAuto {
				wants = append(wants, "triage verified")
			}
			for _, want := range wants {
				if !strings.Contains(out.String(), want) {
					t.Errorf("replay output lacks %q:\n%s", want, out.String())
				}
			}

			flipped := rewrite(t, recorded, func(e *journal.Event) bool {
				if e.T != journal.TypeHook {
					return false
				}
				h := *e.Hook
				if h.Action == "allow" {
					h.Action = "reject"
				} else {
					h.Action = "allow"
				}
				e.Hook = &h
				return true
			})
			if err := runReplay(io.Discard, flipped, depth, logger); err == nil || !strings.Contains(err.Error(), "diverged") {
				t.Errorf("replay of a flipped hook decision: err %v, want a divergence", err)
			}
			if depth != pipeline.DepthAuto {
				return
			}
			routed := map[string]bool{}
			for _, e := range recorded {
				if e.T == journal.TypeTriage && e.Triage.Route != "uncertain" {
					routed[e.DocID] = true
				}
			}
			flipped = rewrite(t, recorded, func(e *journal.Event) bool {
				if e.T != journal.TypeVerdict || !routed[e.DocID] {
					return false
				}
				v := *e.Verdict
				v.Malicious = !v.Malicious
				e.Verdict = &v
				return true
			})
			if err := runReplay(io.Discard, flipped, depth, logger); err == nil || !strings.Contains(err.Error(), "triage records inconsistent") {
				t.Errorf("replay of a flipped verdict: err %v, want a triage inconsistency", err)
			}
		})
	}
}
