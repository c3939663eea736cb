package pipeline

import "pdfshield/internal/obs"

// analysisHook, when non-nil, runs at the start of every contained
// per-document analysis with the document's ID. It exists as a test seam:
// the fuzzing work fixes every panic we can find, but containment must hold
// for the ones we can't, so tests inject a panic here to prove the batch
// survives. Set it only from tests, and only while no batch is running.
var analysisHook func(docID string)

// openHook, when non-nil, runs just before every reader open with the
// document's ID. Test seam for the stall watchdog: a test blocks one
// document here to prove a wedged open is flagged with a goroutine dump
// while concurrent documents keep getting verdicts. Same contract as
// analysisHook: set only from tests, only while nothing is running.
var openHook func(docID string)

// watchdogTuning is the stall watchdog configuration NewSystem builds
// diagnostics with (zero = the obs defaults). Test seam: the wedged-open
// test shortens the deadline so the watchdog fires within the test. Same
// contract as analysisHook: set only from tests, only while nothing is
// running.
var watchdogTuning obs.WatchdogConfig
