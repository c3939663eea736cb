package pipeline

import (
	"context"
	"runtime"
	"sync"

	"pdfshield/internal/obs"
)

// BatchDoc is one input document for ProcessBatchContext.
type BatchDoc struct {
	// ID is the caller-chosen document identity (path or corpus id).
	ID string
	// Raw holds the original document bytes.
	Raw []byte
}

// BatchOptions tunes a ProcessBatchContext run. The scan depth is the
// system's (Options.Depth); a batch has no depth of its own.
type BatchOptions struct {
	// Workers is the number of concurrent Worker lanes. Each lane owns one
	// long-lived session (reader process + hook sink) that is recycled
	// between documents instead of recreated. Zero or negative means
	// runtime.NumCPU().
	Workers int
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

// ProcessBatchContext runs the complete workflow over many documents on a
// pool of Worker lanes that drain one index channel. Per-document failures
// are recorded in BatchResult.Errors rather than aborting the batch, and
// results come back in input order.
//
// Every shared component (instrumenter, registry, detector, fake OS) is
// safe for concurrent use; the detector attributes events per reader PID,
// so concurrent documents cannot cross-contaminate feature vectors. Each
// document still runs in a logically fresh reader process (Session.Recycle
// restarts the process between documents), so per-document verdicts match
// serial ProcessDocumentContext runs.
//
// Cancellation: once ctx ends, no further document is dispatched; every
// slot never dispatched gets ctx.Err() and is not counted as processed. A
// document already handed to a lane ends the way Worker.Process ends it:
// counted as errored with ctx.Err() if the context died before its
// analysis, or stopped at its next phase boundary. Documents completed
// before the cancellation keep their verdicts.
func (s *System) ProcessBatchContext(ctx context.Context, docs []BatchDoc, opts BatchOptions) *BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &BatchResult{
		Verdicts: make([]*Verdict, len(docs)),
		Errors:   make([]error, len(docs)),
	}
	if len(docs) == 0 {
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
	// to a lane; with concurrent batches the gauge is additive across
	// them. The workers gauge counts pool width the same way.
	queue := s.Obs.Gauge(obs.MetricBatchQueueDepth)
	queue.Add(int64(len(docs)))
	s.Obs.GaugeAdd(obs.MetricBatchWorkers, int64(workers))
	defer s.Obs.GaugeAdd(obs.MetricBatchWorkers, -int64(workers))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.NewWorker()
			defer w.Close()
			// Lanes write disjoint slots, so no result locking is needed
			// and input order is preserved for free.
			for i := range jobs {
				out.Verdicts[i], out.Errors[i] = w.Process(ctx, docs[i])
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := range docs {
		// A dead context dispatches nothing, not even to an idle lane,
		// which the select below could still pick.
		if ctx.Err() != nil {
			break
		}
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
