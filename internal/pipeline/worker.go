package pipeline

import "context"

// Worker is one long-lived scanning lane: it processes documents one at a
// time through the same recycled-session path the batch engine's pool
// workers use (lazy session creation, Recycle between documents, panic
// containment with session discard), but with the caller owning the
// document feed. A long-running service keeps one Worker per concurrency
// slot and pushes documents as they arrive, instead of buffering arrivals
// into ProcessBatchContext calls.
//
// A Worker is NOT safe for concurrent use — it owns a single reader
// session. Concurrency comes from running several Workers, exactly like
// the batch pool; every shared component underneath (instrumenter,
// registry, detector, cache) is concurrency-safe across Workers.
type Worker struct {
	sys  *System
	sess *Session
}

// NewWorker creates an idle worker lane. The session is created lazily on
// the first Process call.
func (s *System) NewWorker() *Worker {
	return &Worker{sys: s}
}

// Process runs one document end to end and returns its verdict. Failures
// are per-document: an error (including a contained analysis panic) leaves
// the worker usable for the next document.
func (w *Worker) Process(ctx context.Context, doc BatchDoc) (*Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.sys.processWithSession(ctx, &w.sess, doc, "")
}

// Close releases the worker's reader session, if one was ever created.
func (w *Worker) Close() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
}
