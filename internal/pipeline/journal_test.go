package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/winos"
)

// journalCorpus is the mixed live batch the replay tests record: working
// exploits (alerts with confinement), benign-with-JS documents (full
// instrumented runs, no alert) and a scriptless control.
func journalCorpus() []BatchDoc {
	g := corpus.NewGenerator(271)
	var docs []BatchDoc
	for _, s := range g.MaliciousBatch(6) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	for _, s := range g.BenignWithJS(6) {
		docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	}
	s := g.BenignText(32 << 10)
	docs = append(docs, BatchDoc{ID: s.ID, Raw: s.Raw})
	return docs
}

// TestReplayDeterminism is the tentpole invariant: a live batch recorded to
// a journal, re-fed serially through a fresh detector, reproduces the
// identical canonical event stream — every feature trigger, malscore and
// alert, in the same order — plus the same alert list.
func TestReplayDeterminism(t *testing.T) {
	var recBuf bytes.Buffer
	rec := journal.NewWriter(&recBuf, journal.Options{Session: "live"})
	sys, err := NewSystem(Options{Seed: 271, Journal: rec, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	docs := journalCorpus()
	res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 4})
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d documents failed: %v", n, res.Errors)
	}
	liveAlerts := sys.Detector.Alerts()
	if len(liveAlerts) == 0 {
		t.Fatal("live batch raised no alerts; replay test needs alert traffic")
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recorded, err := journal.Read(&recBuf)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh detector, no listeners, no registry: the journal is the only
	// input source.
	var repBuf bytes.Buffer
	rep := journal.NewWriter(&repBuf, journal.Options{Session: "replay"})
	det2, stats, err := detect.Replay(recorded, detect.Config{
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

	// The replayed detector's alert list matches the live one in order,
	// identity, score and feature vector.
	repAlerts := det2.Alerts()
	if len(repAlerts) != len(liveAlerts) {
		t.Fatalf("alerts: live %d, replay %d", len(liveAlerts), len(repAlerts))
	}
	for i := range liveAlerts {
		l, r := liveAlerts[i], repAlerts[i]
		if l.DocID != r.DocID || l.InstrKey != r.InstrKey || l.Malscore != r.Malscore ||
			l.Reason != r.Reason || l.Cause != r.Cause || l.Features != r.Features {
			t.Errorf("alert %d: live %+v != replay %+v", i, l, r)
		}
	}
}

// TestReplayDeterminismAcrossWidths re-records the same corpus at worker
// width 1 and 4: each document's behavioral sub-stream — feature triggers
// with their operation strings, alerts with score and feature set — must
// agree even though the global interleaving differs. Identity columns
// (instrumentation keys, pids, memory baselines) are run-local: keys come
// from a shared RNG drawn in dispatch order, so they are excluded here;
// within ONE recording they are exact (see TestReplayDeterminism).
func TestReplayDeterminismAcrossWidths(t *testing.T) {
	byDoc := func(events []journal.Event) map[string][]string {
		out := make(map[string][]string)
		for _, e := range events {
			if e.DocID == "" {
				continue
			}
			switch e.T {
			case journal.TypeFeature:
				out[e.DocID] = append(out[e.DocID],
					fmt.Sprintf("feature|%s|%s", e.Feature.Name, e.Feature.Op))
			case journal.TypeAlert:
				out[e.DocID] = append(out[e.DocID],
					fmt.Sprintf("alert|%d|%s|%v", e.Alert.Malscore, e.Alert.Reason, e.Alert.Features))
			case journal.TypeVerdict:
				out[e.DocID] = append(out[e.DocID],
					fmt.Sprintf("verdict|%v|%v|%v|%v", e.Verdict.Malicious, e.Verdict.NoJavaScript, e.Verdict.Crashed, e.Verdict.Features))
			}
		}
		return out
	}
	run := func(workers int) map[string][]string {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf, journal.Options{})
		sys, err := NewSystem(Options{Seed: 271, Journal: w, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sys.Close() }()
		res := sys.ProcessBatchContext(t.Context(), journalCorpus(), BatchOptions{Workers: workers})
		if n := res.Failed(); n != 0 {
			t.Fatalf("workers=%d: %d failures", workers, n)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := journal.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return byDoc(events)
	}

	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("doc coverage differs: serial %d, parallel %d", len(serial), len(parallel))
	}
	for doc, want := range serial {
		got, ok := parallel[doc]
		if !ok {
			t.Errorf("doc %s missing from parallel journal", doc)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("doc %s: %d events serial, %d parallel\n  serial:   %v\n  parallel: %v", doc, len(want), len(got), want, got)
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("doc %s event %d: serial %q != parallel %q", doc, i, want[i], got[i])
			}
		}
	}
}

// blockedSink fails every write, like journaling onto a full disk.
type blockedSink struct{}

func (blockedSink) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestJournalFailOpen proves the fail-open contract end to end: a journal
// whose sink rejects every byte changes no verdict — the batch completes
// with the same outcomes as an unjournaled run, and the loss is visible on
// the writer and the metrics registry.
func TestJournalFailOpen(t *testing.T) {
	docs := journalCorpus()

	run := func(w *journal.Writer, reg *obs.Registry) []string {
		sys, err := NewSystem(Options{Seed: 271, Journal: w, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sys.Close() }()
		res := sys.ProcessBatchContext(t.Context(), docs, BatchOptions{Workers: 2})
		out := make([]string, len(docs))
		for i := range docs {
			if res.Errors[i] != nil {
				out[i] = "error: " + res.Errors[i].Error()
				continue
			}
			v := res.Verdicts[i]
			out[i] = fmt.Sprintf("doc=%s malicious=%v nojs=%v crashed=%v features=%v",
				v.DocID, v.Malicious, v.NoJavaScript, v.Crashed, v.FeatureVector)
		}
		return out
	}

	clean := run(nil, obs.NewRegistry())

	reg := obs.NewRegistry()
	// FlushEach pushes every event into the failing sink immediately — the
	// hardest case for fail-open.
	w := journal.NewWriter(blockedSink{}, journal.Options{Obs: reg, FlushEach: true})
	broken := run(w, reg)

	for i := range clean {
		if clean[i] != broken[i] {
			t.Errorf("doc %d: journal failure changed the verdict:\n  clean:  %s\n  broken: %s", i, clean[i], broken[i])
		}
	}
	if w.Err() == nil {
		t.Error("writer hid the sink failure")
	}
	if w.Dropped() == 0 {
		t.Error("no events recorded as dropped")
	}
	if reg.Snapshot().Counters[obs.MetricJournalErrors] == 0 {
		t.Error("journal error counter not incremented")
	}
}
