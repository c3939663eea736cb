package detect

import (
	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/soapsrv"
)

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Notifies, Hooks and Forgets count re-fed detector inputs.
	Notifies, Hooks, Forgets int
	// Skipped counts journal events that are outputs, not inputs (feature,
	// alert, confine, verdict, ...) — recorded for forensics, reproduced by
	// the detector, never fed.
	Skipped int
}

// Replay feeds a recorded journal through a fresh detector built from cfg
// and returns it. The journal is the only input: Replay builds
// cfg.Registry itself, under the detector ID of the recording's validated
// context keys. Before a ctx event is fed, the record it carries (doc,
// key, F1–F5) is registered if absent, and a forget event removes its key
// again. Fake messages are fed as recorded, so they fail validation again
// with the recorded cause. Notify, Event and ForgetDoc are the methods
// live readers deliver into, so the replay runs the live code path; with
// cfg.Journal set, journal.Diff compares what it re-emits with the
// recording.
//
// One live case cannot be rebuilt: a message with a foreign detector ID,
// sent outside JS context, naming the key of an artifact that had no
// context transition since its last forget. Live, the registry still held
// that record and blamed its document; the replay blames none, so the
// fake-message event diverges under journal.Diff.
func Replay(events []journal.Event, cfg Config) (*Detector, ReplayStats, error) {
	var st ReplayStats
	detectorID := ""
	for _, e := range events {
		if e.T == journal.TypeCtx && e.Ctx != nil {
			if k, err := instrument.ParseKey(e.Ctx.WireKey); err == nil {
				detectorID = k.DetectorID
				break
			}
		}
	}
	reg := instrument.NewRegistry(detectorID)
	cfg.Registry = reg
	d, err := New(cfg)
	if err != nil {
		return nil, st, err
	}
	for _, e := range events {
		switch {
		case (e.T == journal.TypeCtx || e.T == journal.TypeFakeMessage) && e.Ctx != nil:
			if e.T == journal.TypeCtx {
				// Register keeps a record already present.
				rec := instrument.DocRecord{DocID: e.DocID, InstrKey: e.Key}
				copy(rec.StaticVector[:], e.Ctx.Static)
				_ = reg.Register(rec)
			}
			// A fake message fails validation again by construction; the
			// error is the detector's fault reply, not a replay failure.
			_ = d.Notify(soapsrv.Notify{Event: e.Ctx.Event, Key: e.Ctx.WireKey, Seq: e.Ctx.Seq, PID: e.PID}, "replay")
			st.Notifies++
		case e.T == journal.TypeHook && e.Hook != nil:
			d.Event(hook.Event{PID: e.PID, API: e.Hook.API, Args: e.Hook.Args, MemMB: e.Hook.MemMB, Seq: e.Hook.Seq})
			st.Hooks++
		case e.T == journal.TypeForget:
			d.ForgetDoc(e.Key)
			reg.Remove(e.Key)
			st.Forgets++
		default:
			st.Skipped++
		}
	}
	return d, st, nil
}

// Every journal* helper below runs while d.mu is held, which is the
// property replay determinism rests on: the journal's append order equals
// the state machine's processing order. All helpers are no-ops without a
// configured journal (the payload allocation is the only cost worth
// guarding; Writer.Append itself is nil-safe).

// journalCtx records a validated Javascript-context transition with the
// F1–F5 vector of the registry record it validated against.
func (d *Detector) journalCtx(n soapsrv.Notify, st *DocState, static [5]int, mem float64) {
	if d.cfg.Journal == nil {
		return
	}
	d.cfg.Journal.Append(journal.Event{
		T:     journal.TypeCtx,
		DocID: st.DocID,
		Key:   st.InstrKey,
		PID:   n.PID,
		Ctx:   &journal.Ctx{Event: n.Event, WireKey: n.Key, Seq: n.Seq, MemMB: mem, Static: append([]int(nil), static[:]...)},
	})
}

// journalFake records a notification that failed protection-key
// validation; st is the blamed document (nil when unattributable).
func (d *Detector) journalFake(n soapsrv.Notify, st *DocState, cause error) {
	if d.cfg.Journal == nil {
		return
	}
	e := journal.Event{
		T:     journal.TypeFakeMessage,
		PID:   n.PID,
		Cause: cause.Error(),
		Ctx:   &journal.Ctx{Event: n.Event, WireKey: n.Key, Seq: n.Seq},
	}
	if st != nil {
		e.DocID, e.Key = st.DocID, st.InstrKey
	}
	d.cfg.Journal.Append(e)
}

// journalHook records one hooked API call with the decision returned.
// Feature and confinement events the call triggered precede it in the
// journal (the decision only exists once handling completes).
func (d *Detector) journalHook(ev hook.Event, dec hook.Decision, st *DocState) {
	if d.cfg.Journal == nil {
		return
	}
	e := journal.Event{
		T:   journal.TypeHook,
		PID: ev.PID,
		Hook: &journal.Hook{
			API:      ev.API,
			Args:     ev.Args,
			MemMB:    ev.MemMB,
			Seq:      ev.Seq,
			Behavior: string(ev.Behavior()),
			Action:   string(dec.Action),
			Note:     dec.Note,
		},
	}
	if st != nil {
		e.DocID, e.Key = st.DocID, st.InstrKey
	}
	d.cfg.Journal.Append(e)
}

// journalFeature records a feature's first trigger on a document.
func (d *Detector) journalFeature(st *DocState, feature int, op string) {
	if d.cfg.Journal == nil {
		return
	}
	d.cfg.Journal.Append(journal.Event{
		T:       journal.TypeFeature,
		DocID:   st.DocID,
		Key:     st.InstrKey,
		PID:     st.PID,
		Feature: &journal.Feature{Index: feature, Name: FeatureNames[feature], Op: op},
	})
}

// journalConfine records one Table III confinement action.
func (d *Detector) journalConfine(st *DocState, action, target string, pid int) {
	if d.cfg.Journal == nil {
		return
	}
	e := journal.Event{
		T:       journal.TypeConfine,
		Confine: &journal.Confine{Action: action, Target: target, PID: pid},
	}
	if st != nil {
		e.DocID, e.Key = st.DocID, st.InstrKey
	}
	d.cfg.Journal.Append(e)
}

// journalAlert records a raised alert with its per-feature malscore
// breakdown (st is nil for unattributable fake-message alerts).
func (d *Detector) journalAlert(st *DocState, a Alert) {
	if d.cfg.Journal == nil {
		return
	}
	contrib := a.Features.Contributions(DefaultW1, DefaultW2)
	breakdown := make(map[string]int)
	for i, c := range contrib {
		if c != 0 {
			breakdown[FeatureNames[i]] = c
		}
	}
	pid := 0
	if st != nil {
		pid = st.PID
	}
	d.cfg.Journal.Append(journal.Event{
		T:     journal.TypeAlert,
		DocID: a.DocID,
		Key:   a.InstrKey,
		PID:   pid,
		Alert: &journal.Alert{
			Malscore:   a.Malscore,
			Features:   a.Features.Positive(),
			Breakdown:  breakdown,
			Reason:     a.Reason,
			Cause:      a.Cause,
			Isolated:   a.IsolatedFiles,
			Terminated: a.TerminatedPIDs,
		},
	})
}

// journalForget records retirement of a document's volatile state.
func (d *Detector) journalForget(instrKey string) {
	if d.cfg.Journal == nil {
		return
	}
	d.cfg.Journal.Append(journal.Event{T: journal.TypeForget, Key: instrKey})
}
