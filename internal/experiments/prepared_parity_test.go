package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
	"pdfshield/internal/soapsrv"
)

// TestPreparedViewParity: opening an instrumented document from its
// prepared view, one view shared by several reader processes, is the same
// open as parsing its bytes in a fresh process. For one document of every
// gate family, at standard and deep depth, each open must give equal
// OpenResults, equal detector event streams and equal verdicts. A reader
// whose hooked calls bypass the detector (so nothing is blocked) must also
// write the same files.
func TestPreparedViewParity(t *testing.T) {
	var reps []gateDoc
	seen := make(map[string]bool)
	for _, d := range gateCorpus(Config{Scale: gateScale}) {
		if !seen[d.Family] {
			seen[d.Family] = true
			reps = append(reps, d)
		}
	}
	if len(reps) != len(gateFamilies) {
		t.Fatalf("%d families in the gate corpus, want %d", len(reps), len(gateFamilies))
	}
	for _, depth := range []pipeline.Depth{pipeline.DepthStandard, pipeline.DepthDeep} {
		var force *js.ForceConfig
		if depth == pipeline.DepthDeep {
			force = &js.ForceConfig{}
		}
		for _, d := range reps {
			sys, err := pipeline.NewSystem(pipeline.Options{ViewerVersion: d.viewer, Seed: 7, Depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Instrumenter.InstrumentBytes(d.ID, d.Raw)
			if err != nil && !errors.Is(err, instrument.ErrNoJavaScript) {
				t.Fatalf("%s: %v", d.ID, err)
			}
			for _, protected := range []bool{true, false} {
				want := traceOpens(t, sys, d.viewer, res, force, protected, false)
				for i := 0; i < 3; i++ {
					got := traceOpens(t, sys, d.viewer, res, force, protected, true)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s protected=%v: open %d of the shared view differs from a fresh parse\nview:  %+v\nparse: %+v", depth, d.ID, protected, i, got, want)
					}
				}
			}
			_ = sys.Close()
		}
	}
}

// openTrace is what one open sequence of a document and its attachments
// shows the outside: the open results, the hook and context events the
// detector received (PIDs dropped: each process has its own), the files
// the sequence wrote, and the detector's verdict state per document.
type openTrace struct {
	Opens    []reader.OpenResult
	Errs     []string
	Events   []string
	Files    []string
	Verdicts []string

	paths []string
}

// traceOpens opens res and its attachments in a fresh reader process, from
// the shared prepared views or by parsing Output. Context notifications go
// to sys's detector; hooked calls go there too when protected.
func traceOpens(t *testing.T, sys *pipeline.System, viewer float64, res *instrument.Result, force *js.ForceConfig, protected, shared bool) openTrace {
	t.Helper()
	var tr openTrace
	cfg := reader.Config{
		ViewerVersion: viewer,
		Sink:          &recordingSink{Sink: hook.AllowAllSink{}, tr: &tr},
		OS:            sys.OS,
		Notifier:      &recordingNotifier{n: soapsrv.NewDirect(sys.Detector.Notify), tr: &tr},
	}
	if protected {
		cfg.Sink = &recordingSink{Sink: hook.NewDirectSink(sys.Detector.Event), tr: &tr}
	}
	proc := reader.NewProcess(cfg)
	defer proc.Close()
	docs := append([]*instrument.Result{res}, res.Embedded...)
	for _, r := range docs {
		opts := reader.OpenOptions{ForceExec: force}
		var o *reader.OpenResult
		var err error
		if shared {
			view, perr := r.Prepared()
			if perr != nil {
				t.Fatalf("%s: prepare: %v", r.DocID, perr)
			}
			if again, _ := r.Prepared(); again != view {
				t.Fatalf("%s: Prepared returned two views", r.DocID)
			}
			o, err = proc.OpenPrepared(r.DocID, view, opts)
		} else {
			o, err = proc.Open(r.DocID, r.Output, opts)
		}
		if err != nil {
			tr.Errs = append(tr.Errs, err.Error())
			break
		}
		tr.Opens = append(tr.Opens, *o)
		if o.Crashed {
			break
		}
	}
	for _, path := range tr.paths {
		data, ok := sys.OS.ReadFile(path)
		tr.Files = append(tr.Files, fmt.Sprintf("%s %v %q", path, ok, data))
	}
	tr.paths = nil
	for _, r := range docs {
		st, ok := sys.Detector.DocStateFor(r.Key.InstrKey)
		if !ok {
			tr.Verdicts = append(tr.Verdicts, r.DocID+": no state")
			continue
		}
		v := fmt.Sprintf("%s: features %v peak %.3f", r.DocID, st.Features, st.PeakMemMB)
		if a := st.Alert; a != nil {
			v += fmt.Sprintf(" alert malscore=%d reason=%q cause=%q ops=%q isolated=%q", a.Malscore, a.Reason, a.Cause, a.Ops, a.IsolatedFiles)
		}
		tr.Verdicts = append(tr.Verdicts, v)
		sys.Detector.ForgetDoc(r.Key.InstrKey)
	}
	return tr
}

type recordingSink struct {
	hook.Sink
	tr *openTrace
}

func (s *recordingSink) OnAPICall(ev hook.Event) (hook.Decision, error) {
	dec, err := s.Sink.OnAPICall(ev)
	switch {
	case ev.API == "NtCreateFile" && len(ev.Args) > 0:
		s.tr.paths = append(s.tr.paths, ev.Args[0])
	case ev.API == "URLDownloadToFileA" && len(ev.Args) > 1:
		s.tr.paths = append(s.tr.paths, ev.Args[1])
	}
	s.tr.Events = append(s.tr.Events, fmt.Sprintf("api %s %q mem=%.3f -> %v %v", ev.API, ev.Args, ev.MemMB, dec, err))
	return dec, err
}

type recordingNotifier struct {
	n  soapsrv.Notifier
	tr *openTrace
}

func (r *recordingNotifier) Send(n soapsrv.Notify) (string, error) {
	status, err := r.n.Send(n)
	r.tr.Events = append(r.tr.Events, fmt.Sprintf("ctx %s %s seq=%d -> %s %v", n.Event, n.Key, n.Seq, status, err))
	return status, err
}
