package instrument

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/pdf"
	"pdfshield/internal/reader"
)

// DefaultEndpointAddr is the host:port of DefaultEndpoint.
const DefaultEndpointAddr = "127.0.0.1:8217"

// DefaultEndpoint is the SOAP URL compiled into monitoring code when the
// caller does not override it, and the endpoint of a detector that runs in
// the reader's process; the reader's SOAP bridge routes requests for it to
// the live detector.
const DefaultEndpoint = "http://" + DefaultEndpointAddr + "/ctx"

// Options configures an Instrumenter.
type Options struct {
	// Endpoint is the detector SOAP URL embedded in monitoring code.
	Endpoint string
	// Seed seeds the randomization RNG; 0 seeds it from the current time
	// (time.Now().UnixNano()), so runs are reproducible only when a seed
	// is given.
	Seed int64
	// Obs, when non-nil, receives the front-end phase latency histograms
	// (parse/analyze/instrument) and instrumentation counters. Embedded
	// documents' phases fold into their host's top-level observation, so
	// one submission is one observation per phase.
	Obs *obs.Registry
	// Units is the compiled-unit cache to precompile monitoring code into
	// (nil = js.DefaultUnits). Instrumentation-time precompilation means
	// the reader's first open of a freshly instrumented document finds its
	// prologue/epilogue already compiled and pays only a cache hit.
	Units *js.UnitCache
}

// ErrNoJavaScript is returned when a document has nothing to instrument.
// Callers typically treat this as "benign by scope" rather than a failure.
var ErrNoJavaScript = errors.New("document contains no javascript")

// ErrUnresolvedObjectStreams is returned instead of ErrNoJavaScript when no
// script was found but the document has object streams or cross-reference
// streams the parser does not expand: scripts may sit inside them, so the
// document must not be treated as out of scope. The Result is non-nil.
var ErrUnresolvedObjectStreams = errors.New("document has object streams the parser does not resolve")

// Instrumenter is the front-end component: it statically analyzes
// documents, extracts features, and inserts context monitoring code.
type Instrumenter struct {
	registry *Registry
	endpoint string
	rng      *rand.Rand
	obs      *obs.Registry
	units    *js.UnitCache
}

// New returns an Instrumenter bound to a key registry.
func New(registry *Registry, opts Options) *Instrumenter {
	endpoint := opts.Endpoint
	if endpoint == "" {
		endpoint = DefaultEndpoint
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	units := opts.Units
	if units == nil {
		units = js.DefaultUnits
	}
	return &Instrumenter{
		registry: registry,
		endpoint: endpoint,
		obs:      opts.Obs,
		units:    units,
		//nolint:gosec // randomization of code layout, not cryptography; the
		// protection key material comes from crypto/rand in key.go.
		// lockedSource makes the shared Instrumenter safe for concurrent
		// InstrumentBytes calls (batch workers instrument in parallel).
		rng: rand.New(&lockedSource{src: rand.NewSource(seed)}),
	}
}

// lockedSource is a mutex-guarded rand.Source: *rand.Rand itself is not
// goroutine-safe, and the instrumenter draws from one shared RNG for code
// layout randomization.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// PhaseTiming records per-phase durations (Table X's columns).
type PhaseTiming struct {
	ParseDecompress   time.Duration
	FeatureExtraction time.Duration
	Instrumentation   time.Duration
}

// Total sums the phases.
func (t PhaseTiming) Total() time.Duration {
	return t.ParseDecompress + t.FeatureExtraction + t.Instrumentation
}

// SpecEntry records one script replacement so it can be undone.
type SpecEntry struct {
	Location pdf.ScriptLocation `json:"location"`
	// Original is the pre-instrumentation script source.
	Original string `json:"original"`
	// Filters is the original stream filter chain (nil for string values).
	Filters []pdf.Name `json:"filters,omitempty"`
	// Cleared reports this entry was a sequential (/Next) script whose body
	// was folded into the first script of the sequence.
	Cleared bool `json:"cleared"`
}

// DeinstrumentSpec is exported alongside an instrumented document; applying
// it restores the original scripts (§III-F).
type DeinstrumentSpec struct {
	DocID    string      `json:"doc_id"`
	InstrKey string      `json:"instr_key"`
	Entries  []SpecEntry `json:"entries"`
}

// Result is the outcome of instrumenting one document.
type Result struct {
	DocID string
	// ContentHash is the SHA-256 of the pre-instrumentation bytes — the
	// front-end cache key, also kept in the registry record. Computed once
	// per submission and threaded through (registry record, cache).
	ContentHash string
	// Key is the full protection key for this document.
	Key Key
	// Features are the five static features extracted during analysis.
	Features StaticFeatures
	// Chains is the reconstructed chain set.
	Chains pdf.ChainSet
	// Output is the serialized instrumented document.
	Output []byte
	// ScriptBytes is the length of the triggered script text Output
	// carries: the monitored scripts the instrumenter wrote. It bounds
	// the scripts of the reader view (ViewBound).
	ScriptBytes int
	// Recovered reports that parsing needed the lenient scavenger.
	Recovered bool
	// Spec allows later de-instrumentation.
	Spec DeinstrumentSpec
	// ScriptsInstrumented counts monitoring-code insertions (sequential
	// chains count once).
	ScriptsInstrumented int
	// StagedRewrites counts nested code-string parameters wrapped for the
	// staged/delayed attack defenses.
	StagedRewrites int
	// ObjectCount is the number of indirect objects parsed.
	ObjectCount int
	// Timing holds per-phase durations.
	Timing PhaseTiming
	// OwnerPasswordRemoved reports that view-only encryption was stripped.
	OwnerPasswordRemoved bool
	// Embedded holds the instrumentation results of embedded PDF
	// documents (§VI extension); each has its own protection key.
	Embedded []*Result
	// UnresolvedObjectStreams is set with ErrUnresolvedObjectStreams, and
	// on an instrumented host when an attachment was left as-is because
	// of its unresolved object streams.
	UnresolvedObjectStreams bool

	// view is the reader's prepared view of Output, built on first use.
	viewOnce sync.Once
	view     *reader.Prepared
	viewErr  error
}

// viewFixedBytes is the fixed part of ViewBound.
const viewFixedBytes = 1024

// ViewBound bounds the bytes the Result's reader view retains: a fixed
// part, the script text (ScriptBytes), and at most len(Output) for the
// rest (Info strings, the egg, embedded payload programs). It is known as
// soon as the Result is, so the front-end cache charges it at store time.
func (r *Result) ViewBound() int64 {
	return viewFixedBytes + int64(len(r.Output)) + int64(r.ScriptBytes)
}

// prepareHook, when set (tests), observes every Prepare a Result runs.
var prepareHook func(*Result)

// Prepared returns the reader's read-only view of Output, parsing Output
// on the first call only: every later call, from any goroutine, returns
// the same view, so each open of a cached artifact skips the parse. The
// view is built from the bytes, never from the instrumenter's in-memory
// document: the reader sees what the bytes say. A view larger than
// ViewBound (a payload that decompresses far beyond its share of Output) is
// not kept, so each call prepares a view of its own.
func (r *Result) Prepared() (*reader.Prepared, error) {
	var built *reader.Prepared
	r.viewOnce.Do(func() {
		if prepareHook != nil {
			prepareHook(r)
		}
		built, r.viewErr = reader.Prepare(r.Output)
		if r.viewErr == nil && built.Size() <= r.ViewBound() {
			r.view = built
		}
	})
	switch {
	case built != nil:
		return built, nil
	case r.view == nil && r.viewErr == nil:
		return reader.Prepare(r.Output) // oversized: not kept
	}
	return r.view, r.viewErr
}

// ContentHash computes the content identity (SHA-256, hex) of raw
// document bytes.
func ContentHash(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Analyze parses raw bytes and extracts static features without modifying
// the document. Used for feature studies (Figure 6, Table VI) and by
// baseline detectors. The parsed document is returned so callers can keep
// working on it (validation, embedded extraction) without re-parsing.
func Analyze(raw []byte) (StaticFeatures, pdf.ChainSet, *pdf.Document, error) {
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return StaticFeatures{}, pdf.ChainSet{}, nil, err
	}
	feats, chains, err := AnalyzeDoc(doc)
	if err != nil {
		return StaticFeatures{}, pdf.ChainSet{}, nil, err
	}
	return feats, chains, doc, nil
}

// AnalyzeDoc extracts static features from an already-parsed document,
// letting callers that parsed once reuse the document instead of paying a
// second parse over the same bytes. Encrypted documents have their owner
// password removed in place, exactly as Analyze would.
func AnalyzeDoc(doc *pdf.Document) (StaticFeatures, pdf.ChainSet, error) {
	if doc.IsEncrypted() {
		if err := pdf.RemoveOwnerPassword(doc); err != nil {
			return StaticFeatures{}, pdf.ChainSet{}, err
		}
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		return StaticFeatures{}, pdf.ChainSet{}, err
	}
	return ExtractFeatures(doc, chains), chains, nil
}

// InstrumentBytes runs the complete front-end pipeline over raw document
// bytes: parse and decompress, extract static features, reconstruct
// Javascript chains, insert context monitoring code into every triggered
// chain, and recursively instrument embedded PDF documents. Documents with
// no Javascript anywhere return ErrNoJavaScript.
func (ins *Instrumenter) InstrumentBytes(docID string, raw []byte) (*Result, error) {
	return ins.InstrumentBytesWithHash(docID, raw, "")
}

// InstrumentBytesWithHash is InstrumentBytes for callers that already
// computed ContentHash(raw) — the front-end cache keys by it before
// calling in — so each submission is hashed exactly once.
func (ins *Instrumenter) InstrumentBytesWithHash(docID string, raw []byte, hash string) (*Result, error) {
	res, err := ins.instrumentBytesDepth(docID, raw, hash, 0)
	ins.observeFrontEnd(res, err)
	return res, err
}

// observeFrontEnd reports one top-level front-end pass into the obs
// registry: per-phase latency histograms plus instrumentation counters.
// Cached submissions never reach here (the cache short-circuits before
// the instrumenter), so histogram counts equal real front-end passes.
func (ins *Instrumenter) observeFrontEnd(res *Result, err error) {
	if ins.obs == nil || res == nil {
		return
	}
	t := res.Timing
	ins.obs.Observe(obs.PhaseSeries(obs.PhaseParse), t.ParseDecompress)
	ins.obs.Observe(obs.PhaseSeries(obs.PhaseAnalyze), t.FeatureExtraction)
	if t.Instrumentation > 0 {
		ins.obs.Observe(obs.PhaseSeries(obs.PhaseInstrument), t.Instrumentation)
	}
	if err == nil && res.ScriptsInstrumented > 0 {
		ins.obs.Inc(obs.MetricDocsInstrumented)
		ins.obs.CounterAdd(obs.MetricScripts, uint64(res.ScriptsInstrumented))
		ins.obs.CounterAdd(obs.MetricStagedRewrites, uint64(res.StagedRewrites))
	}
}

// instrumentBytesDepth is the recursive front-end worker. hash is the
// precomputed ContentHash of raw ("" = compute here; embedded recursion
// always computes, the bytes differ from the host's).
func (ins *Instrumenter) instrumentBytesDepth(docID string, raw []byte, hash string, depth int) (*Result, error) {
	if hash == "" {
		hash = ContentHash(raw)
	}

	t0 := time.Now()
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", docID, err)
	}
	removedPw := false
	if doc.IsEncrypted() {
		if err := pdf.RemoveOwnerPassword(doc); err != nil {
			return nil, fmt.Errorf("remove owner password %s: %w", docID, err)
		}
		removedPw = true
	}
	parseDur := time.Since(t0)

	embedded, embUnresolved, err := ins.instrumentEmbedded(docID, doc, depth)
	if err != nil {
		return nil, err
	}

	t1 := time.Now()
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		return nil, fmt.Errorf("chains %s: %w", docID, err)
	}
	features := ExtractFeatures(doc, chains)
	featDur := time.Since(t1)

	if !chains.HasJavaScript() {
		res := &Result{
			DocID:       docID,
			ContentHash: hash,
			Features:    features,
			Chains:      chains,
			Output:      raw,
			Recovered:   doc.Recovered,
			ObjectCount: doc.Len(),
			Embedded:    embedded,
			Timing:      PhaseTiming{ParseDecompress: parseDur, FeatureExtraction: featDur},

			UnresolvedObjectStreams: embUnresolved || doc.UnresolvedObjectStreams(),
		}
		if len(embedded) == 0 {
			if res.UnresolvedObjectStreams {
				return res, ErrUnresolvedObjectStreams
			}
			return res, ErrNoJavaScript
		}
		// The host carries no script but its attachments do: emit the host
		// with instrumented attachments embedded.
		out, werr := pdf.Write(doc, pdf.WriteOptions{})
		if werr != nil {
			return nil, fmt.Errorf("write %s: %w", docID, werr)
		}
		res.Output = out
		return res, nil
	}

	t2 := time.Now()
	instrKey, err := NewInstrKey(nil)
	if err != nil {
		return nil, err
	}
	key := Key{DetectorID: ins.registry.DetectorID(), InstrKey: instrKey}
	builder := &monitorBuilder{rng: ins.rng, endpoint: ins.endpoint, detectorID: key.DetectorID}

	res := &Result{
		DocID:                docID,
		ContentHash:          hash,
		Key:                  key,
		Features:             features,
		Chains:               chains,
		Recovered:            doc.Recovered,
		ObjectCount:          doc.Len(),
		OwnerPasswordRemoved: removedPw,
		Embedded:             embedded,
		Spec:                 DeinstrumentSpec{DocID: docID, InstrKey: instrKey},

		UnresolvedObjectStreams: embUnresolved,
	}

	// Holders that appear in another chain's /Next sequence are folded into
	// the head of the sequence and must not get their own monitor.
	sequential := make(map[int]bool)
	for _, c := range chains.Chains {
		for _, n := range c.NextNums {
			sequential[n] = true
		}
	}
	chainByHolder := make(map[int]*pdf.JSChain, len(chains.Chains))
	for i := range chains.Chains {
		chainByHolder[chains.Chains[i].Holder] = &chains.Chains[i]
	}

	seq := 0
	for i := range chains.Chains {
		chain := &chains.Chains[i]
		if !chain.Triggered || sequential[chain.Holder] {
			continue
		}
		seq++
		combined := chain.Source
		for _, nextNum := range chain.NextNums {
			if nc, ok := chainByHolder[nextNum]; ok && nc.Source != "" {
				combined += "\n;" + nc.Source
			}
		}
		rewritten, nStaged := rewriteStaged(combined, 0, func(inner string) string {
			seq++
			m := builder.build(key, seq, inner)
			// Inner monitors reach the interpreter through eval at run
			// time; compile them now so every stage of a staged chain
			// opens warm.
			ins.units.Warm(m)
			return m
		})
		res.StagedRewrites += nStaged
		monitored := builder.build(key, seq, rewritten)
		res.ScriptBytes += len(monitored)
		// Precompile both what the reader's Run sees (the outer monitor)
		// and what its decryptor evals (the rewritten payload): the first
		// open of this document then hits the unit cache on every layer.
		ins.units.Warm(monitored)
		ins.units.Warm(rewritten)

		if err := ins.replaceScript(doc, chain, monitored, &res.Spec); err != nil {
			return nil, fmt.Errorf("instrument %s holder %d: %w", docID, chain.Holder, err)
		}
		// Blank the sequential scripts that were folded in.
		for _, nextNum := range chain.NextNums {
			nc, ok := chainByHolder[nextNum]
			if !ok {
				continue
			}
			if err := ins.replaceScript(doc, nc, "", &res.Spec); err != nil {
				return nil, fmt.Errorf("blank %s holder %d: %w", docID, nextNum, err)
			}
			res.Spec.Entries[len(res.Spec.Entries)-1].Cleared = true
		}
		res.ScriptsInstrumented++
	}

	if res.ScriptsInstrumented == 0 {
		// Chains exist but none are triggered; nothing runs, nothing to
		// monitor in the host itself.
		res.Timing = PhaseTiming{ParseDecompress: parseDur, FeatureExtraction: featDur, Instrumentation: time.Since(t2)}
		if len(embedded) == 0 {
			res.Output = raw
			return res, nil
		}
		out, werr := pdf.Write(doc, pdf.WriteOptions{})
		if werr != nil {
			return nil, fmt.Errorf("write %s: %w", docID, werr)
		}
		res.Output = out
		return res, nil
	}

	out, err := pdf.Write(doc, pdf.WriteOptions{})
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", docID, err)
	}
	res.Output = out
	res.Timing = PhaseTiming{ParseDecompress: parseDur, FeatureExtraction: featDur, Instrumentation: time.Since(t2)}

	if err := ins.registry.Register(DocRecord{
		DocID:        docID,
		InstrKey:     instrKey,
		StaticVector: features.Vector(),
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// replaceScript rewrites the script bytes at a chain's location, recording
// the original in the spec.
func (ins *Instrumenter) replaceScript(doc *pdf.Document, chain *pdf.JSChain, newSource string, spec *DeinstrumentSpec) error {
	loc := chain.Location
	entry := SpecEntry{Location: loc, Original: chain.Source}

	if loc.DataNum >= 0 && loc.InStream {
		obj, ok := doc.Get(loc.DataNum)
		if !ok {
			return fmt.Errorf("data object %d: %w", loc.DataNum, pdf.ErrNotFound)
		}
		stream, ok := obj.Object.(*pdf.Stream)
		if !ok {
			return fmt.Errorf("data object %d is %s, want stream", loc.DataNum, obj.Object.Kind())
		}
		entry.Filters = stream.Filters()
		raw, filterObj, err := pdf.EncodeChain([]pdf.Name{pdf.FilterFlate}, []byte(newSource))
		if err != nil {
			return err
		}
		newDict := stream.Dict.Clone()
		newDict["Filter"] = filterObj
		doc.Put(pdf.IndirectObject{Num: loc.DataNum, Gen: obj.Gen, Object: &pdf.Stream{Dict: newDict, Raw: raw}})
		spec.Entries = append(spec.Entries, entry)
		return nil
	}

	// Script stored as a string: either directly in the holder dict or in a
	// referenced string object.
	newVal := pdf.String{Value: []byte(newSource)}
	if loc.DataNum >= 0 {
		obj, ok := doc.Get(loc.DataNum)
		if !ok {
			return fmt.Errorf("data object %d: %w", loc.DataNum, pdf.ErrNotFound)
		}
		doc.Put(pdf.IndirectObject{Num: loc.DataNum, Gen: obj.Gen, Object: newVal})
		spec.Entries = append(spec.Entries, entry)
		return nil
	}
	holder, ok := doc.Get(loc.HolderNum)
	if !ok {
		return fmt.Errorf("holder %d: %w", loc.HolderNum, pdf.ErrNotFound)
	}
	var dict pdf.Dict
	switch v := holder.Object.(type) {
	case pdf.Dict:
		dict = v
	case *pdf.Stream:
		dict = v.Dict
	default:
		return fmt.Errorf("holder %d is %s", loc.HolderNum, holder.Object.Kind())
	}
	dict[loc.Key] = newVal
	spec.Entries = append(spec.Entries, entry)
	return nil
}

// Restore rewrites an instrumented document back to its original scripts
// using the exported spec, without touching the registry. Callers that
// must keep the protection key alive a little longer (the pipeline, while
// concurrent opens of the same cached document are still in flight) call
// Restore now and Forget when the last user releases the key.
func (ins *Instrumenter) Restore(raw []byte, spec DeinstrumentSpec) ([]byte, error) {
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return nil, fmt.Errorf("deinstrument parse: %w", err)
	}
	for _, entry := range spec.Entries {
		chain := &pdf.JSChain{Location: entry.Location, Source: entry.Original}
		restored := entry.Original
		if err := ins.replaceScript(doc, chain, restored, &DeinstrumentSpec{}); err != nil {
			return nil, fmt.Errorf("restore holder %d: %w", entry.Location.HolderNum, err)
		}
	}
	out, err := pdf.Write(doc, pdf.WriteOptions{})
	if err != nil {
		return nil, fmt.Errorf("deinstrument write: %w", err)
	}
	return out, nil
}

// Forget removes a document's registry record, completing a
// de-instrumentation started with Restore.
func (ins *Instrumenter) Forget(instrKey string) {
	ins.registry.Remove(instrKey)
}

// Deinstrument restores a document to its pre-instrumentation scripts using
// the exported spec and removes its registry entry. The paper runs this in
// the background once a document has been classified benign, so that known
// documents stop paying the monitoring cost.
func (ins *Instrumenter) Deinstrument(raw []byte, spec DeinstrumentSpec) ([]byte, error) {
	out, err := ins.Restore(raw, spec)
	if err != nil {
		return nil, err
	}
	ins.registry.Remove(spec.InstrKey)
	return out, nil
}
