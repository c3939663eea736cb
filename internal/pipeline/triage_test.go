package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"pdfshield/internal/attack"
	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/pdf"
	"pdfshield/internal/triage"
	"pdfshield/internal/winos"
)

// triageSystem builds a triage-routed (DepthAuto) system on a private
// registry.
func triageSystem(t *testing.T, seed int64, j *journal.Writer) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		ViewerVersion: 8.0,
		Seed:          seed,
		Obs:           obs.NewRegistry(),
		Journal:       j,
		Depth:         DepthAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

// TestTriageNeverFastPathsMalicious is the pinned safety invariant behind
// the fast path: no sample from the malicious corpus — every generator
// family plus the mimicry attacks from internal/attack — may ever route
// confident-benign, and enabling triage may never un-convict a document
// the dynamic tier convicts.
func TestTriageNeverFastPathsMalicious(t *testing.T) {
	var docs []BatchDoc
	for _, seed := range []int64{7, 99} {
		g := corpus.NewGenerator(seed)
		for _, fam := range corpus.MaliciousFamilies() {
			s, ok := g.MaliciousFamily(fam)
			if !ok {
				t.Fatalf("unknown family %s", fam)
			}
			docs = append(docs, BatchDoc{ID: fmt.Sprintf("%s-%d", s.ID, seed), Raw: s.Raw})
		}
		m := attack.MimicrySample(seed)
		docs = append(docs, BatchDoc{ID: fmt.Sprintf("%s-%d", m.ID, seed), Raw: m.Raw})
	}

	on := triageSystem(t, 42, nil)
	off, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 42, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = off.Close() }()

	resOn := on.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
	resOff := off.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
	for i, doc := range docs {
		if resOn.Errors[i] != nil || resOff.Errors[i] != nil {
			t.Errorf("%s: on err=%v off err=%v", doc.ID, resOn.Errors[i], resOff.Errors[i])
			continue
		}
		vOn, vOff := resOn.Verdicts[i], resOff.Verdicts[i]
		if vOn.TriageRoute == string(triage.RouteBenign) {
			t.Errorf("%s: malicious sample took the fast path: %+v", doc.ID, vOn.Triage)
		}
		if vOff.Malicious && !vOn.Malicious {
			t.Errorf("%s: dynamic tier convicts but triage-on run does not (route %s)",
				doc.ID, vOn.TriageRoute)
		}
		if vOn.TriageRoute == string(triage.RouteMalicious) {
			if !vOn.Malicious || vOn.Alert == nil || vOn.Alert.Reason != "triage-static" {
				t.Errorf("%s: static conviction missing its alert: %+v", doc.ID, vOn.Alert)
			}
			if vOn.Open != nil {
				t.Errorf("%s: statically convicted document was still opened", doc.ID)
			}
		}
	}
	if st := on.Stats().Triage; st.Benign != 0 {
		t.Errorf("triage stats report %d benign routes on an all-malicious batch", st.Benign)
	}
}

// TestTriageMismatchFallsToSandbox covers the static-benign / dynamic-
// malicious gap the fail-safe routing exists for: the document's only
// script is eval(this.info.title) — statically clean except for the
// dynamic eval, which the abstract interpreter cannot resolve — while the
// title holds the actual spray-and-trigger exploit. Triage must route it
// uncertain (never benign), and the dynamic tier must then convict it.
func TestTriageMismatchFallsToSandbox(t *testing.T) {
	exploit := `var p = "PAYLOAD:DROP=C:\\tmp\\mm.exe;EXEC=C:\\tmp\\mm.exe|";` + "\n" +
		`var n = unescape("%0c%0c%0c%0c");` + "\n" +
		`while (n.length < 524288) n += n;` + "\n" +
		`var b = [];` + "\n" +
		`for (var i = 0; i < 230; i++) b[i] = n + p;` + "\n" +
		`util.printf("%45000f", 0.01);`
	d := pdf.NewDocument()
	info := d.Add(pdf.Dict{"Title": pdf.String{Value: []byte(exploit)}})
	jsObj := d.Add(pdf.String{Value: []byte(`eval(this.info.title);`)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": jsObj})
	catalog := d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	d.Trailer["Root"] = catalog
	d.Trailer["Info"] = info
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	sys := triageSystem(t, 5, nil)
	v, err := sys.ProcessDocumentContext(t.Context(), "title-mismatch", raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.TriageRoute != string(triage.RouteUncertain) {
		t.Fatalf("route = %q, want uncertain (decision %+v)", v.TriageRoute, v.Triage)
	}
	if !v.Malicious {
		t.Fatalf("dynamic tier missed the title-hidden exploit: %+v", v)
	}
	if v.Open == nil {
		t.Fatal("uncertain route skipped the reader open")
	}
}

// TestTriageBenignParity proves the fast path changes throughput, not
// verdicts: the benign-with-JS population gets identical Malicious flags
// with triage on and off, a majority skips the sandbox entirely, and the
// route counters in Stats agree with the verdicts.
func TestTriageBenignParity(t *testing.T) {
	g := corpus.NewGenerator(31)
	var docs []BatchDoc
	for _, s := range g.BenignWithJS(40) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}

	on := triageSystem(t, 17, nil)
	off, err := NewSystem(Options{ViewerVersion: 8.0, Seed: 17, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = off.Close() }()

	resOn := on.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
	resOff := off.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
	fast := 0
	for i, doc := range docs {
		if resOn.Errors[i] != nil || resOff.Errors[i] != nil {
			t.Fatalf("%s: on err=%v off err=%v", doc.ID, resOn.Errors[i], resOff.Errors[i])
		}
		vOn, vOff := resOn.Verdicts[i], resOff.Verdicts[i]
		if vOn.Malicious != vOff.Malicious {
			t.Errorf("%s: triage changed the verdict: on=%v off=%v (route %s)",
				doc.ID, vOn.Malicious, vOff.Malicious, vOn.TriageRoute)
		}
		switch vOn.TriageRoute {
		case string(triage.RouteBenign):
			fast++
			if vOn.Open != nil {
				t.Errorf("%s: benign route still opened a reader", doc.ID)
			}
		case string(triage.RouteUncertain):
			if vOn.Open == nil {
				t.Errorf("%s: uncertain route skipped the open", doc.ID)
			}
		default:
			t.Errorf("%s: benign corpus sample routed %q", doc.ID, vOn.TriageRoute)
		}
	}
	if fast*2 < len(docs) {
		t.Errorf("only %d/%d benign documents took the fast path", fast, len(docs))
	}
	st := on.Stats().Triage
	if int(st.Benign) != fast || st.Malicious != 0 ||
		int(st.Benign+st.Uncertain) != len(docs) {
		t.Errorf("triage stats %+v disagree with verdicts (fast=%d, docs=%d)", st, fast, len(docs))
	}
}

// TestTriageReplayDeterminism re-runs the golden replay invariant with the
// triage tier enabled: statically routed documents contribute journal
// context (TypeTriage, verdicts) but no canonical detector events, so the
// recorded stream still replays diff-free, and every routed document's
// journaled verdict is consistent with its journaled route.
func TestTriageReplayDeterminism(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, journal.Options{Session: "live"})
	sys := triageSystem(t, 271, w)

	res := sys.ProcessBatchContext(t.Context(), journalCorpus(), BatchOptions{Workers: 4})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed: %v", n, res.Errors)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recorded, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	routes := make(map[string]string)
	verdicts := make(map[string]*journal.Verdict)
	canonicalKeys := make(map[string]bool)
	for _, e := range recorded {
		switch e.T {
		case journal.TypeTriage:
			routes[e.DocID] = e.Triage.Route
		case journal.TypeVerdict:
			verdicts[e.DocID] = e.Verdict
		default:
			if e.Canon() != "" && e.Key != "" {
				canonicalKeys[e.Key] = true
			}
		}
	}
	if len(routes) == 0 {
		t.Fatal("no triage events recorded")
	}
	for docID, route := range routes {
		v, ok := verdicts[docID]
		if !ok {
			t.Errorf("%s: triage event without a verdict", docID)
			continue
		}
		switch route {
		case "benign":
			if v.Malicious {
				t.Errorf("%s: benign route but malicious verdict", docID)
			}
		case "malicious":
			if !v.Malicious {
				t.Errorf("%s: malicious route but benign verdict", docID)
			}
		}
	}

	// Statically routed documents never reach a reader, so their keys must
	// be absent from the canonical detector stream.
	for _, e := range recorded {
		if e.T != journal.TypeTriage || e.Triage.Route == "uncertain" || e.Key == "" {
			continue
		}
		if canonicalKeys[e.Key] {
			t.Errorf("%s: statically routed key %s has canonical detector events", e.DocID, e.Key)
		}
	}

	var repBuf bytes.Buffer
	rep := journal.NewWriter(&repBuf, journal.Options{Session: "replay"})
	_, stats, err := detect.Replay(recorded, detect.Config{
		OS:      winos.NewOS(),
		Obs:     obs.NewRegistry(),
		Journal: rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Notifies == 0 || stats.Hooks == 0 {
		t.Fatalf("replay fed nothing: %+v", stats)
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed, err := journal.Read(&repBuf)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := journal.Diff(recorded, replayed); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("replay diverged in %d place(s)", len(diffs))
	}
}
