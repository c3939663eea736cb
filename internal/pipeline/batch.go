package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/instrument"
	"pdfshield/internal/obs"
	"pdfshield/internal/triage"
)

// BatchDoc is one input document for ProcessBatchContext.
type BatchDoc struct {
	// ID is the caller-chosen document identity (path or corpus id).
	ID string
	// Raw holds the original document bytes.
	Raw []byte
}

// BatchOptions tunes a ProcessBatchContext run.
type BatchOptions struct {
	// Workers is the number of concurrent reader sessions. Each worker
	// owns one long-lived session (reader process + hook sink) that is
	// recycled between documents instead of recreated. Zero or negative
	// means runtime.NumCPU().
	Workers int
	// Depth overrides the system-wide scan depth for this batch (empty =
	// inherit Options.Depth). An unknown value fails the whole batch:
	// every slot carries the parse error.
	Depth Depth
}

// BatchResult collects the outcome of a ProcessBatchContext run. Both
// slices are indexed like the input: Verdicts[i] and Errors[i] describe
// docs[i], and exactly one of them is non-nil per document. When the
// batch's context is cancelled mid-run, documents processed before the
// cancellation keep their verdicts and every remaining slot carries
// ctx.Err().
type BatchResult struct {
	Verdicts []*Verdict
	Errors   []error
	// CacheStats snapshots the front-end cache after the batch (nil when
	// the system runs without a cache).
	CacheStats *cache.Stats
}

// Failed counts documents that ended in an error.
func (r *BatchResult) Failed() int {
	n := 0
	for _, err := range r.Errors {
		if err != nil {
			n++
		}
	}
	return n
}

// Cancelled counts documents whose slot carries a context error (never
// dispatched, or skipped by a worker after cancellation).
func (r *BatchResult) Cancelled() int {
	n := 0
	for _, err := range r.Errors {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			n++
		}
	}
	return n
}

// ProcessBatchContext runs the complete workflow over many documents
// using a worker pool. Per-document failures are recorded in
// BatchResult.Errors rather than aborting the batch, and results come
// back in input order.
//
// Every shared component (instrumenter, registry, detector, fake OS) is
// safe for concurrent use; the detector attributes events per reader PID,
// so concurrent documents cannot cross-contaminate feature vectors. Each
// document still runs in a logically fresh reader process (Session.Recycle
// restarts the process between documents), so per-document verdicts match
// serial ProcessDocumentContext runs.
//
// Cancellation: once ctx ends, no further document is dispatched and
// workers skip any job already queued to them; documents completed before
// the cancellation keep their verdicts, and every unprocessed slot gets
// ctx.Err(). In-flight documents finish their current phase boundary
// check and stop there (see ProcessDocumentContext).
func (s *System) ProcessBatchContext(ctx context.Context, docs []BatchDoc, opts BatchOptions) *BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &BatchResult{
		Verdicts: make([]*Verdict, len(docs)),
		Errors:   make([]error, len(docs)),
	}
	defer func() {
		if stats, ok := s.CacheStats(); ok {
			out.CacheStats = &stats
		}
	}()
	if len(docs) == 0 {
		return out
	}
	if _, err := ParseDepth(string(opts.Depth)); err != nil {
		for i := range out.Errors {
			out.Errors[i] = err
		}
		return out
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(docs) {
		workers = len(docs)
	}

	// The queue-depth gauge tracks documents accepted but not yet handed
	// to a worker; with concurrent batches the gauge is additive across
	// them. The workers gauge counts pool width the same way.
	queue := s.Obs.Gauge(obs.MetricBatchQueueDepth)
	queue.Add(int64(len(docs)))
	s.Obs.GaugeAdd(obs.MetricBatchWorkers, int64(workers))
	defer s.Obs.GaugeAdd(obs.MetricBatchWorkers, -int64(workers))

	if workers == 1 {
		// Serial batches skip the worker pool: a channel round-trip per
		// document costs more than the whole front-end cache hit path, so
		// the single-worker case (the paper's configuration, and any
		// single-CPU host) runs the same per-document code inline.
		var sess *Session
		defer func() {
			if sess != nil {
				sess.Close()
			}
		}()
		for i := range docs {
			queue.Add(-1)
			if err := ctx.Err(); err != nil {
				out.Errors[i] = err
				continue
			}
			out.Verdicts[i], out.Errors[i] = s.processWithSession(ctx, &sess, docs[i], opts.Depth)
		}
		return out
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sess *Session
			defer func() {
				if sess != nil {
					sess.Close()
				}
			}()
			for i := range jobs {
				// Workers write disjoint slots, so no result locking is
				// needed and input order is preserved for free.
				if err := ctx.Err(); err != nil {
					out.Errors[i] = err
					continue
				}
				out.Verdicts[i], out.Errors[i] = s.processWithSession(ctx, &sess, docs[i], opts.Depth)
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := range docs {
		select {
		case jobs <- i:
			dispatched++
			queue.Add(-1)
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	// Slots never dispatched fail with the cancellation error; the gauge
	// gives their queue residency back.
	if dispatched < len(docs) {
		queue.Add(-int64(len(docs) - dispatched))
		for i := dispatched; i < len(docs); i++ {
			out.Errors[i] = ctx.Err()
		}
	}
	return out
}

// processWithSession runs one document through a reusable session, lazily
// creating it on first need and recycling it between documents. It is the
// one per-document path: batch workers, Worker lanes and
// ProcessDocumentContext (on a session it closes) all run through it.
//
// A panic while analyzing one document is contained to that document: the
// caller gets a fail-closed error, the session is thrown away (the reader
// process may be mid-open with arbitrary state), and a batch keeps
// draining. A document that crashes the analyzer is never reported benign
// by omission.
func (s *System) processWithSession(ctx context.Context, sess **Session, doc BatchDoc, depth Depth) (v *Verdict, err error) {
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
			discardSession(sess)
			v, err = nil, fmt.Errorf("analysis panic: %v", r)
		}
	}()
	if analysisHook != nil {
		analysisHook(doc.ID)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prof := s.depthProfile(depth)
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
	if *sess == nil {
		*sess = s.NewSession()
	} else {
		(*sess).Recycle()
	}
	v, err = s.openAndJudge(ctx, *sess, res, tr, prof)
	claimVerdict(v, doc.ID)
	annotateTriage(v, td)
	return v, err
}
