package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pdfshield/internal/instrument"
	"pdfshield/internal/obs"
	"pdfshield/internal/triage"
)

// Worker is one long-lived scanning lane and the pipeline's only
// per-document path: ProcessDocumentContext runs one Worker and closes
// it, each ProcessBatchContext pool goroutine runs one, and a long-running
// service keeps one per concurrency slot and pushes documents as they
// arrive. A Worker processes documents one at a time on one reader
// session, created on first need and recycled between documents.
//
// A Worker is NOT safe for concurrent use — it owns a single reader
// session. Concurrency comes from running several Workers; every shared
// component underneath (instrumenter, registry, detector, cache) is
// concurrency-safe across Workers.
type Worker struct {
	sys  *System
	sess *Session
}

// NewWorker creates an idle worker lane. The session is created lazily on
// the first Process call.
func (s *System) NewWorker() *Worker {
	return &Worker{sys: s}
}

// Process runs one document end to end at the system's scan depth and
// returns its verdict. Every document handed to Process is counted and
// journaled, a document whose context is already dead included: it ends
// as errored with ctx.Err(). Cancellation is honoured between phases
// (before the front-end, before the reader open, and between attachment
// opens).
//
// Failures are per-document and leave the worker usable for the next
// document. A panic while analyzing one document is contained to that
// document: the caller gets a fail-closed error and the session is thrown
// away (the reader process may be mid-open with arbitrary state). A
// document that crashes the analyzer is never reported benign by omission.
func (w *Worker) Process(ctx context.Context, doc BatchDoc) (v *Verdict, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := w.sys
	start := time.Now()
	tr := obs.StartTrace(doc.ID)
	wd := s.diag.Watchdog.Begin(doc.ID)
	tr.Watch(wd)
	defer wd.Done()
	s.journalDocOpen(doc.ID, len(doc.Raw))
	defer func() { s.finishDoc(tr, v, err, time.Since(start)) }()
	defer func() {
		if r := recover(); r != nil {
			s.Obs.Inc(obs.MetricPanics)
			w.discardSession()
			v, err = nil, fmt.Errorf("analysis panic: %v", r)
		}
	}()
	if analysisHook != nil {
		analysisHook(doc.ID)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prof := s.depthProfile()
	res, err, _ := s.frontEndTraced(ctx, doc.ID, doc.Raw, tr)
	defer s.release(res)
	if err != nil {
		if errors.Is(err, instrument.ErrNoJavaScript) {
			// No scripts means no open at any depth, but the verdict still
			// records which depth it was produced under.
			return &Verdict{DocID: doc.ID, NoJavaScript: true, Instrument: res, Depth: string(prof.depth)}, nil
		}
		if errors.Is(err, instrument.ErrUnresolvedObjectStreams) && res != nil && prof.triage {
			// Scripts may hide in the object streams nobody expanded, so
			// the document is never out of scope. Triage finds no script
			// and routes it uncertain; with nothing found to open, the
			// verdict stops there. Standard and deep return the error.
			return s.verdictFromTriage(doc.ID, res, s.runTriage(doc.ID, doc.Raw, res, tr), prof), nil
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var td *triage.Decision
	if prof.triage {
		td = s.runTriage(doc.ID, doc.Raw, res, tr)
		if prof.staticOnly || td.Route != triage.RouteUncertain {
			return s.verdictFromTriage(doc.ID, res, td, prof), nil
		}
	}
	if w.sess == nil {
		w.sess = s.NewSession()
	} else {
		w.sess.Recycle()
	}
	v, err = s.openAndJudge(ctx, w.sess, res, tr, prof)
	claimVerdict(v, doc.ID)
	annotateTriage(v, td)
	return v, err
}

// discardSession closes and clears a session whose document panicked. The
// reader process may be mid-open with arbitrary state, so the session is
// thrown away rather than recycled; Close errors (or panics) during
// teardown of an already-broken session are deliberately swallowed.
func (w *Worker) discardSession() {
	sess := w.sess
	if sess == nil {
		return
	}
	w.sess = nil
	defer func() { _ = recover() }()
	sess.Close()
}

// Close releases the worker's reader session, if one was ever created.
func (w *Worker) Close() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
}
