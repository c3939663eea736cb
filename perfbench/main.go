// Command perfbench is pdfshield's benchmark. For one named workload it
// generates a fixed-seed corpus, drives it through the daemon-default
// pipeline (pdfshield-serve's configuration: front-end cache on at default
// caps, diagnostics on, no journal) with a closed loop of one
// pipeline.Worker per CPU, checks every verdict against the corpus's
// ground truth and prints the end-to-end metrics. With --trace 1 it runs
// the same window untraced, then again through a traced rebuild of the
// pipeline's document flow, and prints the per-layer ledger instead.
//
//	bash perfbench/run.sh --workload mixed_standard --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The line before it is the run's record: environment and corpus stamps,
// and the verdict check with the doc IDs behind every miss, false alarm
// and failure. Scaling across core counts is outside this benchmark: every
// run uses as many clients as the machine has CPUs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/pipeline"
)

// workload is one named input set and scan depth.
type workload struct {
	depth pipeline.Depth
	build func(seed int64, n int) *stream
	// perClientRate bounds the documents one client completes per second
	// from above, with room to spare; the stream holds enough submissions
	// for the window at that rate.
	perClientRate float64
}

var workloads = map[string]workload{
	"mixed_standard":       {pipeline.DepthStandard, buildMixed, 100},
	"interactive_standard": {pipeline.DepthStandard, buildInteractive, 2500},
	"scripted_auto":        {pipeline.DepthAuto, buildScripted, 2500},
}

// setupReps is how many times an untimed-window run builds the system to
// report the median set-up time.
const setupReps = 25

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp is the environment a run measured.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	// MemLimitMB is the Go soft memory limit the run set.
	MemLimitMB int64  `json:"memory_limit_mb"`
	Scaling    string `json:"scaling"`
}

// record is the line before the result.
type record struct {
	Workload       string      `json:"workload"`
	Trace          bool        `json:"trace"`
	Env            envStamp    `json:"env"`
	Corpus         corpusStamp `json:"corpus"`
	Verdicts       quality     `json:"verdicts"`
	LatencySamples int         `json:"latency_samples"`
	// Routes counts the window's submissions by triage route ("none" when
	// triage did not run).
	Routes map[string]int `json:"routes"`
	// PeakRSSMB is the process's peak resident set size at the end of the
	// run.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// PeakHeapMB is the peak live heap during the window, less the corpus
	// the benchmark holds (untraced runs only).
	PeakHeapMB float64 `json:"peak_heap_mb,omitempty"`
	// StealFrac is the share of machine CPU time stolen by the hypervisor
	// during the timed window (the untraced one on traced runs).
	StealFrac float64 `json:"steal_frac"`
	// Raw holds the wall-clock metrics before the steal adjustment
	// (untraced runs only).
	Raw *rawWallClock `json:"raw_wall_clock,omitempty"`
	// Mismatches lists submissions whose traced verdict differs from the
	// untraced pipeline's (traced runs only).
	Mismatches []string `json:"parity_mismatches,omitempty"`
}

// rawWallClock is throughput and latency as measured, before scaling by
// the CPU share the hypervisor left the machine.
type rawWallClock struct {
	DocsPerS float64 `json:"docs_per_s"`
	P50MS    float64 `json:"doc_p50_ms"`
	P90MS    float64 `json:"doc_p90_ms"`
}

// quality is the verdict check of one window against ground truth.
type quality struct {
	Attempted       int      `json:"attempted"`
	Failed          int      `json:"failed"`
	FailedFrac      float64  `json:"failed_frac"`
	FailedIDs       []string `json:"failed_ids,omitempty"`
	Working         int      `json:"working_exploits"`
	MissedMalicious int      `json:"missed_malicious"`
	MissedIDs       []string `json:"missed_ids,omitempty"`
	FalseAlarms     int      `json:"false_alarms"`
	FalseAlarmIDs   []string `json:"false_alarm_ids,omitempty"`
}

// maxMissedShare is the share of working exploits a run may judge benign
// and still count as correct: the paper's Table VIII detects about 96% of
// working samples, and exploits whose CVE the emulated reader version does
// not carry run without effect.
const maxMissedShare = 0.10

func (q quality) ok() bool {
	return q.Failed == 0 && q.FalseAlarms == 0 && float64(q.MissedMalicious) <= maxMissedShare*float64(q.Working)
}

// judge compares each outcome with its submission's ground truth. A
// missed malicious document is a working exploit judged benign; a false
// alarm is a benign document convicted.
func judge(subs []submission, outs []outcome) quality {
	q := quality{Attempted: len(outs)}
	for i, o := range outs {
		s := subs[i]
		switch {
		case o.err != nil:
			q.Failed++
			q.FailedIDs = append(q.FailedIDs, s.id)
		case s.doc.label == corpus.LabelMalicious && s.doc.outcome == corpus.OutcomeExploit:
			q.Working++
			if !o.malicious {
				q.MissedMalicious++
				q.MissedIDs = append(q.MissedIDs, s.id)
			}
		case s.doc.label == corpus.LabelBenign && o.malicious:
			q.FalseAlarms++
			q.FalseAlarmIDs = append(q.FalseAlarmIDs, s.id)
		}
	}
	q.FailedFrac = ratio(float64(q.Failed), float64(q.Attempted))
	return q
}

func latencies(outs []outcome) []time.Duration {
	out := make([]time.Duration, len(outs))
	for i, o := range outs {
		out[i] = o.latency
	}
	return out
}

const mib = 1 << 20

// memoryLimit is the Go soft memory limit a run sets unless GOMEMLIMIT
// names one.
const memoryLimit = 1536 * mib

// endToEnd is every end-to-end metric of one untraced run. Wall-clock
// metrics are scaled by the share of machine CPU time the hypervisor did
// not steal during the window: on a shared host a third of the CPU can be
// stolen, which would move throughput and latency by more than any bound
// while the work done per document stays the same. The record keeps the
// unscaled values.
func endToEnd(run *pipelineRun, rec *record) map[string]metric {
	n := run.docs()
	lat := latencies(run.outs)
	rec.Raw = &rawWallClock{
		DocsPerS: float64(n) / run.wall.Seconds(),
		P50MS:    quantile(lat, 0.50),
		P90MS:    quantile(lat, 0.90),
	}
	own := 1 - run.stealFrac
	return map[string]metric{
		"setup_s":          {median(run.setups), "s"},
		"docs_per_s":       {rec.Raw.DocsPerS / own, "docs/s"},
		"doc_p50_ms":       {rec.Raw.P50MS * own, "ms"},
		"doc_p90_ms":       {rec.Raw.P90MS * own, "ms"},
		"cpu_ms_per_doc":   {perDoc(ms(run.cpu), n), "ms"},
		"alloc_kb_per_doc": {perDoc(float64(run.allocs)/1024, n), "KB"},
	}
}

// perLayer is every per-layer metric of one traced run.
func perLayer(run *tracedRun) map[string]metric {
	l := run.led
	n := l.docs
	per := func(d time.Duration) metric { return metric{perDoc(ms(d), n), "ms"} }
	count := func(c int) metric { return metric{perDoc(float64(c), n), "count"} }
	untracedCPU := perDoc(ms(run.untraced.cpu), run.untraced.docs())
	tracedCPU := perDoc(ms(run.traced.cpu), run.traced.docs())
	return map[string]metric{
		"instrument.ms_per_doc":        per(l.instrument),
		"pdf.parse_ms_per_doc":         per(l.parse),
		"cache.hit_ratio":              {ratio(float64(l.hits), float64(l.lookups)), "ratio"},
		"cache.ms_per_doc":             per(l.cacheSelf),
		"triage.ms_per_doc":            per(l.triage),
		"triage.static_ratio":          {ratio(float64(l.static), float64(l.triaged)), "ratio"},
		"reader.session_ms_per_doc":    per(l.session),
		"reader.open_ms_per_doc":       per(l.open),
		"reader.self_ms_per_doc":       per(l.open - l.hookRTT - l.soapRTT),
		"js.unit_hit_ratio":            {ratio(float64(run.units.Hits), float64(run.units.Hits+run.units.Misses)), "ratio"},
		"js.deep_paths_per_doc":        count(l.deepPaths),
		"js.ms_per_deep_path":          {ratio(ms(l.deepOpen), float64(l.deepPaths)), "ms"},
		"js.budget_exhausted_per_doc":  count(l.deepBudget),
		"hook.events_per_doc":          count(l.hookEvents),
		"hook.rtt_ms_per_doc":          per(l.hookRTT),
		"hook.transport_ms_per_doc":    per(l.hookRTT - l.hookHandler),
		"soapsrv.msgs_per_doc":         count(l.soapMsgs),
		"soapsrv.rtt_ms_per_doc":       per(l.soapRTT),
		"soapsrv.transport_ms_per_doc": per(l.soapRTT - l.soapHandler),
		"detect.handler_ms_per_doc":    per(l.hookHandler + l.soapHandler),
		"detect.judge_ms_per_doc":      per(l.judge),
		"pipeline.glue_cpu_ms_per_doc": {untracedCPU - tracedCPU, "ms"},
		"ledger.wall_ms_per_doc":       per(l.wall),
		"ledger.attributed_ratio":      {ratio(float64(l.busy()), float64(l.wall)), "ratio"},
	}
}

// streamSize is how many submissions a window of dur can consume at most.
func streamSize(wl workload, clients int, dur time.Duration) int {
	return int(math.Ceil(wl.perClientRate*float64(clients)*dur.Seconds())) + 1
}

func run(name string, seed int64, dur time.Duration, trace bool) (*record, *result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	clients := runtime.NumCPU()
	st := wl.build(seed, streamSize(wl, clients, dur))
	if err := st.checkUniqueIDs(); err != nil {
		return nil, nil, err
	}
	rec := &record{
		Workload: name,
		Trace:    trace,
		Env: envStamp{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Clients:    clients,
			GoVersion:  runtime.Version(),
			Seed:       seed,
			MemLimitMB: debug.SetMemoryLimit(-1) / mib,
			Scaling:    "scaling across core counts is outside this benchmark",
		},
	}
	res := &result{}
	var outs []outcome
	if trace {
		tr, err := runTraced(wl.depth, st, clients, dur)
		if err != nil {
			return nil, nil, err
		}
		outs = tr.traced.outs
		rec.StealFrac = tr.untraced.stealFrac
		rec.Mismatches = tr.mismatches
		res.Metrics = perLayer(tr)
	} else {
		pr, err := runPipeline(wl.depth, st, clients, setupReps, dur)
		if err != nil {
			return nil, nil, err
		}
		outs = pr.outs
		rec.StealFrac = pr.stealFrac
		res.Metrics = endToEnd(pr, rec)
		rec.PeakHeapMB = (float64(pr.peakLive) - float64(st.heldBytes())) / mib
	}
	rec.Corpus = stampOf(st.subs[:len(outs)])
	rec.Verdicts = judge(st.subs, outs)
	rec.LatencySamples = len(outs)
	rec.PeakRSSMB = peakRSSMB()
	rec.Routes = map[string]int{}
	for _, o := range outs {
		r := o.route
		if r == "" {
			r = "none"
		}
		rec.Routes[r]++
	}
	res.Attempted = rec.Verdicts.Attempted
	res.Failed = rec.Verdicts.Failed
	res.Correct = rec.Verdicts.ok() && len(rec.Mismatches) == 0 && res.Attempted > 0
	return rec, res, nil
}

func main() {
	name := flag.String("workload", "", "workload: mixed_standard, interactive_standard or scripted_auto")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same corpus")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = print the per-layer ledger of a traced run instead of the end-to-end metrics")
	flag.Parse()
	if os.Getenv("GOMEMLIMIT") == "" {
		// The malicious mix carries heap-spray outliers of a gigabyte and
		// more; a soft limit keeps the collector from letting the heap
		// double past them on a shared host. Spray strings hold no
		// pointers, so the extra collections cost little.
		debug.SetMemoryLimit(memoryLimit)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rec, res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
