// Package triage is the static fast-path stage between the front-end
// instrumenter and the dynamic reader session. At production volumes most
// documents should never reach a reader process (ROADMAP item 3): the
// stage re-uses the already-parsed document and the extracted Javascript
// chains to decide, purely statically, whether the dynamic tier can be
// skipped.
//
// Two analyses feed the decision:
//
//   - a PDFInspect-style census over the raw bytes and the parsed
//     structure (census.go): suspicious-name counts (/AA, /OpenAction,
//     /Launch, /RichMedia, /EmbeddedFile), Shannon entropy, multiple
//     %%EOF markers, plus the F1–F5 static features, the recovery marker
//     and embedded-PDF presence;
//   - a SAFE-PDF-style abstract interpretation over every extracted
//     script (absint.go): a flow-insensitive over-approximation of the
//     reachable API surface that recognizes eval/unescape chains,
//     heap-spray growth shapes, the Table III trigger-API families and
//     staged-execution rewrites without executing anything.
//
// The stage emits a three-way route. Confident-benign documents skip the
// sandbox and get their verdict directly; confident-malicious documents
// go straight to confinement (they are never opened — the strongest
// containment available); everything else falls through to the full
// dynamic open, which remains the ground truth. The bias is fail-safe by
// construction: a script that fails to parse, an API outside the known-
// benign allowlist, parser recovery, or an abstract-domain budget blowup
// all route to "uncertain". A document only routes confident-benign when
// every census field is clean AND every script resolves to exclusively
// known-benign behaviour. Encryption is judged on what it hides: a
// verified owner-only decryption (the empty user password's key checked
// against /U) routes exactly like its plaintext twin, and any other
// encryption fails closed in the front end before triage runs.
package triage

import (
	"sort"

	"pdfshield/internal/instrument"
)

// Route is the triage stage's three-way decision.
type Route string

// Routes. RouteUncertain is the fail-safe default: the document takes the
// full dynamic path exactly as if triage were disabled.
const (
	RouteBenign    Route = "benign"
	RouteMalicious Route = "malicious"
	RouteUncertain Route = "uncertain"
)

// Config tunes the stage. The zero value is the production default and is
// what the pipeline runs at DepthStatic and DepthAuto.
type Config struct {
	// NodeBudget bounds the AST nodes visited per document across all
	// scripts and eval recursions (0 = default 200000). Exceeding it is
	// an abstract-domain blowup and routes to "uncertain".
	NodeBudget int
}

// DefaultMaliciousThreshold is the abstract-interpretation score at or
// above which a document routes confident-malicious (the weight of a bare
// unescape-fed heap-spray growth loop). DefaultNodeBudget applies when
// Config.NodeBudget is zero. A script longer than DefaultMaxScriptBytes
// routes "uncertain" unanalyzed.
const (
	DefaultMaliciousThreshold = 8
	DefaultNodeBudget         = 200000
	DefaultMaxScriptBytes     = 1 << 20
)

func (c Config) withDefaults() Config {
	if c.NodeBudget <= 0 {
		c.NodeBudget = DefaultNodeBudget
	}
	return c
}

// Decision is the stage's full output: the route plus the evidence behind
// it, suitable for journaling and operator display. All slices are sorted
// so the decision serializes deterministically.
type Decision struct {
	Route Route `json:"route"`
	// Score is the abstract interpreter's suspicion score (the sum of the
	// distinct Signals' weights; >= the configured threshold routes
	// confident-malicious).
	Score int `json:"score"`
	// Signals are the distinct suspicious constructs the abstract
	// interpreter proved reachable ("spray-grow", "unescape",
	// "api-getIcon", ...). Any signal disqualifies confident-benign.
	Signals []string `json:"signals,omitempty"`
	// Uncertain lists the fail-safe conditions that force the dynamic
	// path ("recovered-parse", "js-parse-error", "api-unknown:...", ...).
	Uncertain []string `json:"uncertain,omitempty"`
	// Census is the structural survey of the document.
	Census Census `json:"census"`
	// Scripts is how many extracted scripts (host + embedded documents)
	// the abstract interpreter analyzed.
	Scripts int `json:"scripts"`
}

// Evaluate runs the triage stage over one submission: raw is the original
// document bytes (census input), res the front-end result whose parsed
// document and extracted chains are re-used (nothing is re-parsed). It
// never executes script code and never mutates res.
func Evaluate(cfg Config, raw []byte, res *instrument.Result) Decision {
	cfg = cfg.withDefaults()
	d := Decision{Census: TakeCensus(raw, res)}
	an := newAnalysis(cfg)
	if res != nil {
		for _, ch := range res.Chains.Chains {
			d.Scripts++
			an.analyzeScript(ch.Source)
		}
		// Embedded documents were recursively instrumented by the front
		// end; their chains are analyzed under the same budget so a
		// malicious attachment convicts the compound document without an
		// open. Embedded presence still disqualifies confident-benign
		// (census flag): the attachment's bytes were not part of this
		// census.
		for _, emb := range res.Embedded {
			if emb == nil {
				continue
			}
			for _, ch := range emb.Chains.Chains {
				d.Scripts++
				an.analyzeScript(ch.Source)
			}
		}
	}
	d.Score = an.score()
	d.Signals = sortedKeys(an.signals)
	d.Uncertain = append(d.Uncertain, d.Census.Flags...)
	d.Uncertain = append(d.Uncertain, sortedKeys(an.uncertain)...)
	switch {
	case d.Score >= DefaultMaliciousThreshold:
		d.Route = RouteMalicious
	case len(d.Uncertain) == 0 && len(d.Signals) == 0 && d.Scripts > 0:
		d.Route = RouteBenign
	default:
		d.Route = RouteUncertain
	}
	return d
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
