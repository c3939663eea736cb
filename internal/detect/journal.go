package detect

import (
	"pdfshield/internal/hook"
	"pdfshield/internal/journal"
	"pdfshield/internal/soapsrv"
)

// The detector implements journal.Sink: Notify, Event and ForgetDoc are
// the same methods live readers deliver into, so a recorded journal
// replays through an identical code path.
var _ journal.Sink = (*Detector)(nil)

// Every journal* helper below runs while d.mu is held, which is the
// property replay determinism rests on: the journal's append order equals
// the state machine's processing order. All helpers are no-ops without a
// configured journal (the payload allocation is the only cost worth
// guarding; Writer.Append itself is nil-safe).

// journalCtx records a validated Javascript-context transition.
func (d *Detector) journalCtx(n soapsrv.Notify, st *DocState, mem float64) {
	if d.cfg.Journal == nil {
		return
	}
	d.cfg.Journal.Append(journal.Event{
		T:     journal.TypeCtx,
		DocID: st.DocID,
		Key:   st.InstrKey,
		PID:   n.PID,
		Ctx:   &journal.Ctx{Event: n.Event, WireKey: n.Key, Seq: n.Seq, MemMB: mem},
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
