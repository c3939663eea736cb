GO ?= go

# Build identity stamped into pdfshield_build_info (internal/obs.Version).
# Defaults to `git describe` so release builds and dirty trees are
# distinguishable on a /v1/metrics scrape; override with VERSION=... .
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X pdfshield/internal/obs.Version=$(VERSION)"

# Per-target budget for `make fuzz`. The committed seeds under
# internal/*/testdata/fuzz/ replay on every plain `make test` regardless.
FUZZTIME ?= 30s

.PHONY: build vet fmt test race fuzz journal-check serve-smoke lint-metrics

build:
	$(GO) build $(LDFLAGS) ./...

# perfbench is a nested module, so ./... does not reach it; vetting it
# here compiles it against the current packages it calls.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# Formatting gate: fails when gofmt would rewrite any Go file.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test: vet fmt lint-metrics journal-check serve-smoke
	$(GO) test ./...

# Metric vocabulary drift gate: every Metric* constant in internal/obs
# must be registered at runtime, and every registered pdfshield_* family
# must have a constant. Keeps dashboards and the code from diverging.
lint-metrics:
	$(GO) test -run TestMetricNameDrift -count=1 .

# End-to-end daemon smoke: build the pdfshield-serve binary, start it on
# an ephemeral port, POST a benign and a malicious corpus document, assert
# the verdict JSON, then SIGTERM and require a clean drain with the
# journal flushed, and that pdfshield-detect -replay verifies it.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./cmd/pdfshield-serve/

# The replay-determinism gate: a live batch recorded to the forensic
# journal must replay, from the journal alone, through a fresh detector
# with byte-identical canonical events (feature triggers, malscores,
# alert order) and an unchanged verdict when the journal sink fails;
# pdfshield-detect must verify recorded batches and reject tampered
# copies. Runs as part of `make test` too (the tests live in
# internal/pipeline, internal/detect and cmd/pdfshield-detect); this
# target names the invariant so it can be run alone after touching
# detect/ or journal/.
journal-check:
	$(GO) test -run 'TestReplay|TestJournal' ./internal/pipeline/... ./internal/journal/... ./internal/detect/... ./cmd/pdfshield-detect/...

# Race-checks the concurrent surface of the batch engine and the
# observability layer: the worker-pool pipeline (including mid-batch
# cancellation), the shared runtime detector, the content-addressed
# front-end cache with its context-aware singleflight, the lock-free
# metrics registry, the journal writer all workers append to, and the
# script engine — compiled-unit cache loads and VM dispatch of shared
# units, exercised under concurrent batch load by the pipeline tests.
# The serve package rides along: admission queue saturation, tenant
# limiter contention, drain-vs-in-flight races, and the hook server's
# accept-retry loop. The triage tier runs inside the worker pool (every
# batch worker evaluates documents concurrently), so it rides too, as
# does the forced-execution deep lane (pipeline deep-scan tests run
# evasive corpora at batch width > 1, and the js package exercises the
# explorer directly). Reader sessions call the detector in-process, so
# concurrent reader goroutines take the detector's lock directly: the
# reader and soapsrv packages ride along for the delivery paths.
race:
	$(GO) test -race ./internal/pipeline/... ./internal/detect/... ./internal/cache/... ./internal/obs/... ./internal/journal/... ./internal/js/... ./internal/serve/... ./internal/hook/... ./internal/triage/... ./internal/reader/... ./internal/soapsrv/...

# Fuzz every attacker-facing decoder for FUZZTIME each: full-document PDF
# parsing, the stream filter codecs, the Javascript interpreter (single
# run and forced-execution exploration — arbitrary scripts must never
# panic, hang, or leak forcing state out of the explorer, and a rerun as a
# compiled-unit cache hit must observe exactly what the first run did —
# plus two differentials: rope strings must be invisible next to flat
# ones, and an array's dense prefix must be invisible next to a map-only
# model), the SOAP envelope codec, the in-process context and hook
# delivery paths (each must accept, reject and normalise exactly what its
# wire path does), the static triage tier (census + abstract interpretation over arbitrary
# bytes — it must stay fail-safe, never panic, and never route unparseable
# input confident-benign), and the staged-call rewriter (it must change
# only the code arguments the reader runs, each decoding as the engine
# decodes it), and the monitor's ciphers (each must decrypt any source to
# exactly the engine's reading of it). New crashers land in
# testdata/fuzz/ — commit them.
fuzz:
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/pdf/
	$(GO) test -fuzz '^FuzzFilters$$' -fuzztime $(FUZZTIME) ./internal/pdf/
	$(GO) test -fuzz '^FuzzJSInterp$$' -fuzztime $(FUZZTIME) ./internal/js/
	$(GO) test -fuzz '^FuzzForcedExec$$' -fuzztime $(FUZZTIME) ./internal/js/
	$(GO) test -fuzz '^FuzzRopeVsFlat$$' -fuzztime $(FUZZTIME) ./internal/js/
	$(GO) test -fuzz '^FuzzArrayModel$$' -fuzztime $(FUZZTIME) ./internal/js/
	$(GO) test -fuzz '^FuzzEnvelope$$' -fuzztime $(FUZZTIME) ./internal/soapsrv/
	$(GO) test -fuzz '^FuzzDirectVsWire$$' -fuzztime $(FUZZTIME) ./internal/soapsrv/
	$(GO) test -fuzz '^FuzzDirectVsWire$$' -fuzztime $(FUZZTIME) ./internal/hook/
	$(GO) test -fuzz '^FuzzTriage$$' -fuzztime $(FUZZTIME) ./internal/triage/
	$(GO) test -fuzz '^FuzzStagedRewrite$$' -fuzztime $(FUZZTIME) ./internal/instrument/
	$(GO) test -fuzz '^FuzzMonitorRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/instrument/
