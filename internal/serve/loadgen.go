package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/journal"
	"pdfshield/internal/pipeline"
)

// The load generator replays a document corpus against a running daemon
// and measures the capacity envelope: docs/sec through the admission
// queue, p50/p99 end-to-end latency (handler entry to verdict written,
// queue wait included), and the rejection rate once the queue saturates.
// Run with the daemon journaling, the recorded journal's doc-open stream
// becomes a deterministic submission schedule a later run can replay
// (-load-journal), which is what makes BENCH records comparable across
// PRs: same seed, same corpus bytes, same submission order.

// LoadConfig tunes a RunLoad pass.
type LoadConfig struct {
	// Target is the daemon's base URL ("http://host:port").
	Target string
	// Docs is the total submission count, spread over Unique distinct
	// documents (duplicate-heavy, like real intake; defaults 200/5).
	Docs, Unique int
	// Concurrency is the number of parallel submitters (default 16).
	Concurrency int
	// Seed makes the corpus bytes reproducible (default 20140623).
	Seed int64
	// Tenant is stamped into X-Tenant on every submission.
	Tenant string
	// JournalPath, when set, replays a recorded journal's doc-open stream
	// as the submission schedule instead of generating a fresh order; the
	// document bytes are regenerated from Seed, so the journal (which
	// records sizes, not bytes) is enough.
	JournalPath string
	// MaxRetries bounds per-document 429 retries, each honoring the
	// server's Retry-After (default 50).
	MaxRetries int
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// LoadStats is the measured capacity of one load pass (the "serve"
// section of a schema/3 bench record).
type LoadStats struct {
	Target      string `json:"target"`
	Concurrency int    `json:"concurrency"`
	Docs        int    `json:"docs"`
	Completed   int    `json:"completed"`
	Failed      int    `json:"failed"`
	Malicious   int    `json:"malicious"`
	NoJS        int    `json:"no_javascript"`
	// Rejected429 counts backpressure answers (429 queue/ratelimit);
	// Retries counts the resubmissions they triggered. RejectionRate is
	// rejected over total submission attempts.
	Rejected429   int     `json:"rejected_429"`
	Retries       int     `json:"retries"`
	RejectionRate float64 `json:"rejection_rate"`
	Seconds       float64 `json:"seconds"`
	DocsPerSec    float64 `json:"docs_per_sec"`
	// Latency percentiles are per successful submission, handler entry to
	// verdict received — queue wait included, retry backoff excluded.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ReplayedJournal names the journal whose doc-open stream drove the
	// submission order ("" = freshly generated order).
	ReplayedJournal string `json:"replayed_journal,omitempty"`
}

// LoadCorpus describes the generated corpus of a load record.
type LoadCorpus struct {
	Docs       int   `json:"docs"`
	Unique     int   `json:"unique"`
	Rounds     int   `json:"rounds"`
	TotalBytes int64 `json:"total_bytes"`
}

// LoadRecord is the JSON record a load pass emits: one self-contained
// capacity measurement (host header, corpus, throughput, latency,
// rejections). Compare two passes by reading their records side by side.
type LoadRecord struct {
	Schema     string     `json:"schema"`
	Timestamp  string     `json:"timestamp"`
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	NumCPU     int        `json:"num_cpu"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Seed       int64      `json:"seed"`
	Corpus     LoadCorpus `json:"corpus"`
	Serve      LoadStats  `json:"serve"`
}

// LoadSchema is the record schema emitted by RunLoad.
const LoadSchema = "pdfshield-bench/3"

// loadSamples generates the duplicate-heavy corpus the load pass submits,
// deterministic in seed. Half the population carries Javascript so a load
// pass exercises the whole pipeline (instrument → monitored open →
// detect), not just the no-JS short-circuit — without JS-bearing carriers
// the per-document cost collapses to the static front-end and the
// admission queue never sees realistic pressure.
func loadSamples(seed int64, unique int) []corpus.Sample {
	g := corpus.NewGenerator(seed)
	samples := make([]corpus.Sample, 0, unique)
	for i := 0; len(samples) < unique; i++ {
		switch i % 4 {
		case 0:
			samples = append(samples, g.BenignText((12+8*i)<<10))
		case 1:
			samples = append(samples, g.BenignFormJS())
		case 2:
			samples = append(samples, g.BenignMultiScript())
		default:
			samples = append(samples, g.BenignAttachments(2+i%3, i%2 == 0))
		}
	}
	return samples
}

// loadSchedule builds the submission order: either rounds over the fresh
// corpus, or the doc-open stream of a recorded journal mapped back onto
// the regenerated samples (a doc-open whose ID matches no sample — e.g.
// an operator-submitted stray — is skipped with a count).
func loadSchedule(cfg LoadConfig, samples []corpus.Sample) ([]pipeline.BatchDoc, int, error) {
	if cfg.JournalPath == "" {
		rounds := cfg.Docs / len(samples)
		if rounds < 1 {
			rounds = 1
		}
		docs := make([]pipeline.BatchDoc, 0, rounds*len(samples))
		for r := 0; r < rounds; r++ {
			for _, s := range samples {
				docs = append(docs, pipeline.BatchDoc{ID: fmt.Sprintf("load-r%02d-%s", r, s.ID), Raw: s.Raw})
			}
		}
		return docs, 0, nil
	}
	events, err := journal.ReadFile(cfg.JournalPath)
	if err != nil {
		return nil, 0, fmt.Errorf("load: replay source: %w", err)
	}
	var docs []pipeline.BatchDoc
	skipped := 0
	for _, e := range events {
		if e.T != journal.TypeDocOpen {
			continue
		}
		matched := false
		for i := range samples {
			if e.DocID == samples[i].ID || strings.HasSuffix(e.DocID, "-"+samples[i].ID) {
				docs = append(docs, pipeline.BatchDoc{ID: e.DocID, Raw: samples[i].Raw})
				matched = true
				break
			}
		}
		if !matched {
			skipped++
		}
	}
	if len(docs) == 0 {
		return nil, skipped, fmt.Errorf("load: journal %s has no doc-open events matching the seed-%d corpus", cfg.JournalPath, cfg.Seed)
	}
	return docs, skipped, nil
}

// RunLoad drives one load pass and returns its record. Progress and the
// skipped-schedule count go to w (nil = quiet).
func RunLoad(cfg LoadConfig, w io.Writer) (*LoadRecord, error) {
	if w == nil {
		w = io.Discard
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("load: target URL required")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 20140623
	}
	if cfg.Unique <= 0 {
		cfg.Unique = 5
	}
	if cfg.Docs < cfg.Unique {
		cfg.Docs = 200
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}

	samples := loadSamples(cfg.Seed, cfg.Unique)
	docs, skipped, err := loadSchedule(cfg, samples)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(w, "load: %d journaled doc-opens matched no corpus sample (skipped)\n", skipped)
	}
	var totalBytes int64
	for _, d := range docs {
		totalBytes += int64(len(d.Raw))
	}

	rec := &LoadRecord{
		Schema:     LoadSchema,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Corpus: LoadCorpus{
			Docs:       len(docs),
			Unique:     cfg.Unique,
			Rounds:     len(docs) / cfg.Unique,
			TotalBytes: totalBytes,
		},
	}
	st := &rec.Serve
	st.Target = cfg.Target
	st.Concurrency = cfg.Concurrency
	st.Docs = len(docs)
	st.ReplayedJournal = cfg.JournalPath

	fmt.Fprintf(w, "load: %d docs (%d unique, %.1f MB) -> %s, concurrency %d\n",
		len(docs), cfg.Unique, float64(totalBytes)/(1<<20), cfg.Target, cfg.Concurrency)

	var (
		mu        sync.Mutex
		latencies []float64 // ms, successful submissions
	)
	jobs := make(chan pipeline.BatchDoc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range jobs {
				lat, outcome, rejected, retries := submitOne(client, cfg, d)
				mu.Lock()
				st.Rejected429 += rejected
				st.Retries += retries
				switch outcome {
				case outcomeOK, outcomeMalicious, outcomeNoJS:
					st.Completed++
					latencies = append(latencies, lat)
					if outcome == outcomeMalicious {
						st.Malicious++
					}
					if outcome == outcomeNoJS {
						st.NoJS++
					}
				default:
					st.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	for _, d := range docs {
		jobs <- d
	}
	close(jobs)
	wg.Wait()
	st.Seconds = time.Since(start).Seconds()
	if st.Seconds > 0 {
		st.DocsPerSec = float64(st.Completed) / st.Seconds
	}
	attempts := st.Completed + st.Failed + st.Rejected429
	if attempts > 0 {
		st.RejectionRate = float64(st.Rejected429) / float64(attempts)
	}
	sort.Float64s(latencies)
	st.P50Ms = percentile(latencies, 0.50)
	st.P90Ms = percentile(latencies, 0.90)
	st.P99Ms = percentile(latencies, 0.99)

	fmt.Fprintf(w, "load: %d completed, %d failed, %d x 429 (%.1f%% rejection), %.1f docs/sec, p50 %.2fms p99 %.2fms\n",
		st.Completed, st.Failed, st.Rejected429, st.RejectionRate*100, st.DocsPerSec, st.P50Ms, st.P99Ms)
	return rec, nil
}

type loadOutcome int

const (
	outcomeOK loadOutcome = iota
	outcomeMalicious
	outcomeNoJS
	outcomeFailed
)

// submitOne POSTs one document, honoring Retry-After on backpressure 429s
// up to MaxRetries. The returned latency is the successful attempt's
// round trip in ms.
func submitOne(client *http.Client, cfg LoadConfig, d pipeline.BatchDoc) (latMs float64, outcome loadOutcome, rejected, retries int) {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, strings.TrimSuffix(cfg.Target, "/")+"/v1/scan", bytes.NewReader(d.Raw))
		if err != nil {
			return 0, outcomeFailed, rejected, retries
		}
		req.Header.Set(HeaderDocID, d.ID)
		if cfg.Tenant != "" {
			req.Header.Set(HeaderTenant, cfg.Tenant)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, outcomeFailed, rejected, retries
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		_ = resp.Body.Close()
		lat := float64(time.Since(t0).Microseconds()) / 1e3

		switch resp.StatusCode {
		case http.StatusOK:
			var sr ScanResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				return lat, outcomeFailed, rejected, retries
			}
			switch {
			case sr.Malicious:
				return lat, outcomeMalicious, rejected, retries
			case sr.NoJS:
				return lat, outcomeNoJS, rejected, retries
			default:
				return lat, outcomeOK, rejected, retries
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
			if attempt >= cfg.MaxRetries {
				return lat, outcomeFailed, rejected, retries
			}
			retries++
			time.Sleep(retryAfterDelay(resp.Header.Get("Retry-After")))
		default:
			return lat, outcomeFailed, rejected, retries
		}
	}
}

// retryAfterDelay parses a Retry-After seconds value (floor 50ms when the
// header is absent or malformed, so a retry loop never spins hot).
func retryAfterDelay(h string) time.Duration {
	if sec, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	return 50 * time.Millisecond
}

// percentile reads the p-th percentile from sorted values (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// WriteRecord writes a load record as an indented JSON file.
func (r *LoadRecord) WriteRecord(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
