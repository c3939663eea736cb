// Replay verification: a recorded journal is re-fed through a fresh
// detector state machine (detect.Replay). Every event the detector
// consumed live (context notifications, hook events, per-document state
// retirement) was journaled while the detector's state lock was held, so
// the journal's sequence order is the exact order the state machine
// observed. Feeding the same stream serially into a fresh detector
// reproduces the identical feature vectors, malscores and alert ordering,
// which Diff checks on the canonical forms below.
package journal

import (
	"fmt"
	"strconv"
	"strings"
)

// Canon renders the event's canonical comparison form: the deterministic
// content a replay must reproduce byte-for-byte. Volatile fields are
// excluded — timestamps, writer sequence numbers, sandbox pids (allocator-
// dependent), quarantine results (need the live file system) and decision
// notes (may embed pids). An empty string means the event has no
// canonical form and is skipped by Diff: pipeline-origin events (doc-open,
// verdict, session-start) only exist on the recording side, and confine
// events record file-system/process side effects replay cannot repeat.
func (e Event) Canon() string {
	var b strings.Builder
	switch e.T {
	case TypeCtx:
		if e.Ctx == nil {
			return ""
		}
		fmt.Fprintf(&b, "ctx|%s|%s|%s|%d|%d", e.Ctx.Event, e.DocID, e.Key, e.PID, e.Ctx.Seq)
	case TypeFakeMessage:
		if e.Ctx == nil {
			return ""
		}
		fmt.Fprintf(&b, "fake|%s|%s|%d|%s", e.Ctx.WireKey, e.DocID, e.PID, e.Cause)
	case TypeHook:
		if e.Hook == nil {
			return ""
		}
		fmt.Fprintf(&b, "hook|%d|%s|%s|%s|%s|%s",
			e.PID, e.Hook.API, strings.Join(e.Hook.Args, ","),
			strconv.FormatFloat(e.Hook.MemMB, 'g', -1, 64),
			e.Hook.Behavior, e.Hook.Action)
	case TypeFeature:
		if e.Feature == nil {
			return ""
		}
		fmt.Fprintf(&b, "feature|%s|%s|%s|%s", e.DocID, e.Key, e.Feature.Name, e.Feature.Op)
	case TypeAlert:
		if e.Alert == nil {
			return ""
		}
		fmt.Fprintf(&b, "alert|%s|%s|%d|%s|%s|%s",
			e.DocID, e.Key, e.Alert.Malscore, e.Alert.Reason, e.Alert.Cause,
			strings.Join(e.Alert.Features, ","))
	case TypeForget:
		fmt.Fprintf(&b, "forget|%s", e.Key)
	default:
		return ""
	}
	return b.String()
}

// CanonStream filters a journal down to the ordered canonical forms of
// its deterministic detector events.
func CanonStream(events []Event) []string {
	var out []string
	for _, e := range events {
		if c := e.Canon(); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// Diff compares a recorded journal against its replay's journal and
// returns human-readable mismatch descriptions (nil when the replay is
// byte-identical on the canonical stream). This is the golden "replay ==
// live" check: feature vectors, malscores and alert ordering all live in
// the canonical forms.
func Diff(recorded, replayed []Event) []string {
	rec := CanonStream(recorded)
	rep := CanonStream(replayed)
	var diffs []string
	n := len(rec)
	if len(rep) < n {
		n = len(rep)
	}
	for i := 0; i < n; i++ {
		if rec[i] != rep[i] {
			diffs = append(diffs, fmt.Sprintf("event %d: recorded %q != replayed %q", i, rec[i], rep[i]))
			if len(diffs) >= 20 {
				diffs = append(diffs, "... (truncated)")
				return diffs
			}
		}
	}
	if len(rec) != len(rep) {
		diffs = append(diffs, fmt.Sprintf("event count: recorded %d != replayed %d", len(rec), len(rep)))
	}
	return diffs
}
