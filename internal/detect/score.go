// Package detect implements the back-end runtime detector of the system.
// The paper runs it as a process of its own behind a SOAP server (context
// notifications from instrumented documents) and a TCP hook endpoint
// (captured API calls from the reader's hook DLL); here it is an
// in-process state machine that readers call directly. It maintains a
// per-document malscore following Equation 1 of the paper and executes
// the confinement rules of Table III.
package detect

import (
	"fmt"
	"strings"
)

// Feature indices into the 13-feature vector, using the paper's canonical
// numbering (Table VII plus the Table II behaviour order): F1-F5 static,
// F6-F7 out-of-JS-context runtime, F8-F13 JS-context runtime.
const (
	FRatio          = 0  // F1 JS-chain object ratio >= 0.2
	FHeaderObf      = 1  // F2 header obfuscation
	FHexCode        = 2  // F3 hex code in keyword
	FEmptyObjects   = 3  // F4 empty objects >= 1
	FEncodingLevels = 4  // F5 encoding level >= 2
	FOutJSProc      = 5  // F6 out-JS process creation
	FOutJSInject    = 6  // F7 out-JS DLL injection
	FMemory         = 7  // F8 JS-context memory consumption >= 100 MB
	FNetwork        = 8  // F9 JS-context network access
	FMemSearch      = 9  // F10 JS-context mapped memory search
	FDropping       = 10 // F11 JS-context malware dropping
	FProcCreate     = 11 // F12 JS-context process creation
	FDLLInject      = 12 // F13 JS-context DLL injection
	NumFeatures     = 13
)

// Default parameters from Table VII.
const (
	DefaultW1        = 1
	DefaultW2        = 9
	DefaultThreshold = 10
	// MemoryThresholdMB is the F8 normalization cutoff.
	MemoryThresholdMB = 100.0
)

// FeatureNames maps indices to short names for reports.
var FeatureNames = [NumFeatures]string{
	"F1:js-chain-ratio", "F2:header-obfuscation", "F3:hex-keyword",
	"F4:empty-objects", "F5:encoding-levels",
	"F6:outjs-process-creation", "F7:outjs-dll-injection",
	"F8:injs-memory", "F9:injs-network", "F10:injs-mem-search",
	"F11:injs-malware-drop", "F12:injs-process-creation", "F13:injs-dll-injection",
}

// Vector is a normalized 13-feature vector.
type Vector [NumFeatures]int

// Malscore computes Equation 1: w1*sum(F1..F7) + w2*sum(F8..F13).
func (v Vector) Malscore(w1, w2 int) int {
	sumStatic := 0
	for i := 0; i <= FOutJSInject; i++ {
		sumStatic += v[i]
	}
	sumInJS := 0
	for i := FMemory; i <= FDLLInject; i++ {
		sumInJS += v[i]
	}
	return w1*sumStatic + w2*sumInJS
}

// Contributions returns each feature's weighted contribution to
// Equation 1's malscore (w1 for F1–F7, w2 for F8–F13; zero for unset
// features). Summing the result reproduces Malscore(w1, w2) — the
// per-feature breakdown journaled with every alert.
func (v Vector) Contributions(w1, w2 int) [NumFeatures]int {
	var out [NumFeatures]int
	for i, b := range v {
		if b == 0 {
			continue
		}
		if i <= FOutJSInject {
			out[i] = w1 * b
		} else {
			out[i] = w2 * b
		}
	}
	return out
}

// HasInJS reports whether any JS-context feature is set.
func (v Vector) HasInJS() bool {
	for i := FMemory; i <= FDLLInject; i++ {
		if v[i] != 0 {
			return true
		}
	}
	return false
}

// Positive lists the names of set features.
func (v Vector) Positive() []string {
	var out []string
	for i, b := range v {
		if b != 0 {
			out = append(out, FeatureNames[i])
		}
	}
	return out
}

func (v Vector) String() string {
	return fmt.Sprintf("[%s]", strings.Join(v.Positive(), " "))
}
