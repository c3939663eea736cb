package detect

import (
	"bytes"
	"strings"
	"testing"

	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/winos"
)

// recorder is a live detector journaling into memory, over a registry
// holding docA (static F1 set) and docB.
type recorder struct {
	t   *testing.T
	det *Detector
	reg *instrument.Registry
	buf bytes.Buffer
	jw  *journal.Writer
}

func newRecorder(t *testing.T) *recorder {
	t.Helper()
	r := &recorder{t: t, reg: instrument.NewRegistry("det01")}
	for _, rec := range []instrument.DocRecord{
		{DocID: "docA", InstrKey: "keyA", StaticVector: [5]int{1, 0, 0, 0, 0}},
		{DocID: "docB", InstrKey: "keyB"},
	} {
		if err := r.reg.Register(rec); err != nil {
			t.Fatal(err)
		}
	}
	r.jw = journal.NewWriter(&r.buf, journal.Options{Session: "live"})
	det, err := New(Config{Registry: r.reg, OS: winos.NewOS(), Journal: r.jw})
	if err != nil {
		t.Fatal(err)
	}
	r.det = det
	return r
}

func (r *recorder) notify(pid int, event, key string) {
	_ = r.det.Notify(soapsrv.Notify{Event: event, Key: key, Seq: 1, PID: pid}, "test")
}

func (r *recorder) mem(pid int, mb float64) {
	r.det.Event(hook.Event{PID: pid, API: "ctx.mem", MemMB: mb})
}

// replayDiff replays the recording from its journal alone and returns
// the canonical differences.
func (r *recorder) replayDiff() []string {
	r.t.Helper()
	if err := r.jw.Flush(); err != nil {
		r.t.Fatal(err)
	}
	recorded, err := journal.Read(&r.buf)
	if err != nil {
		r.t.Fatal(err)
	}
	var repBuf bytes.Buffer
	rep := journal.NewWriter(&repBuf, journal.Options{Session: "replay"})
	if _, _, err := Replay(recorded, Config{OS: winos.NewOS(), Journal: rep}); err != nil {
		r.t.Fatal(err)
	}
	if err := rep.Flush(); err != nil {
		r.t.Fatal(err)
	}
	replayed, err := journal.Read(&repBuf)
	if err != nil {
		r.t.Fatal(err)
	}
	return journal.Diff(recorded, replayed)
}

// TestReplayRebuildsRegistryFromJournal: the replay registry comes from
// the ctx events alone. docA's alert needs its static F1 (in-JS memory 9
// + F1 1 = threshold 10), a decoy key under the right detector ID fails
// as an unknown key, and a foreign-ID message naming docB while its state
// is live is blamed on docB in both runs.
func TestReplayRebuildsRegistryFromJournal(t *testing.T) {
	r := newRecorder(t)
	r.mem(1, 50)
	r.notify(1, soapsrv.EventEnter, "det01:keyA")
	r.mem(1, 400)
	r.notify(1, soapsrv.EventExit, "det01:keyA")
	r.det.ForgetDoc("keyA")

	r.notify(2, soapsrv.EventEnter, "det01:keyB")
	r.notify(2, soapsrv.EventExit, "det01:decoydecoydecoydecoy")
	r.notify(2, soapsrv.EventExit, "det01:keyB")
	r.notify(3, soapsrv.EventExit, "other99:keyB")
	r.det.ForgetDoc("keyB")

	causes := map[string]bool{}
	alerts := map[string]bool{}
	for _, a := range r.det.Alerts() {
		causes[a.Cause] = true
		alerts[a.DocID+"/"+a.Reason] = true
	}
	if !alerts["docA/malscore"] || !alerts["docB/fake-message"] {
		t.Fatalf("live alerts %+v, want docA malscore and docB fake-message", r.det.Alerts())
	}
	if !causes["unknown instrumentation key"] {
		t.Fatalf("live causes %v, want the decoy's unknown-key cause", causes)
	}
	if diffs := r.replayDiff(); len(diffs) != 0 {
		t.Fatalf("replay diverged:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestReplayDivergesOnIdleArtifactBlame pins the one case the journal
// cannot rebuild: a foreign-ID message, sent outside JS context, naming
// a registered artifact with no live state (never opened, or forgotten
// since). Live, the registry blames that document; replay cannot know
// the record, and the divergence must surface in journal.Diff.
func TestReplayDivergesOnIdleArtifactBlame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opened bool
	}{
		{"never opened", false},
		{"forgotten", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorder(t)
			if tc.opened {
				r.notify(1, soapsrv.EventEnter, "det01:keyB")
				r.notify(1, soapsrv.EventExit, "det01:keyB")
				r.det.ForgetDoc("keyB")
			}
			r.notify(7, soapsrv.EventExit, "other99:keyB")
			if a := r.det.Alerts(); len(a) != 1 || a[0].DocID != "docB" {
				t.Fatalf("live alerts %+v, want docB blamed", a)
			}
			if diffs := r.replayDiff(); len(diffs) == 0 {
				t.Fatal("replay of an idle-artifact blame passed silently")
			}
		})
	}
}
