// Package hook implements the API-interception layer between the simulated
// PDF reader process and the runtime detector: the stand-in for the paper's
// IAT-hook DLL. Captured API calls (name, arguments, current memory usage)
// go to the detector, and its confinement decision comes back
// synchronously — the channel §III-E describes. A reader in the detector's
// process calls it directly (DirectSink), as every reader here does;
// TCPClient and Server stream the same calls as JSON lines over a TCP
// socket and stay as the wire reference DirectSink is tested against.
package hook

import "fmt"

// Behavior classifies a hooked API per Table II of the paper.
type Behavior string

// Behaviors (Table II order; MemorySample is the PROCESS_MEMORY_COUNTERS_EX
// reading the hook attaches at JS context boundaries).
const (
	BehaviorMalwareDropping    Behavior = "malware-dropping"
	BehaviorMemorySample       Behavior = "memory-sample"
	BehaviorNetworkAccess      Behavior = "network-access"
	BehaviorMappedMemorySearch Behavior = "mapped-memory-search"
	BehaviorProcessCreation    Behavior = "process-creation"
	BehaviorDLLInjection       Behavior = "dll-injection"
	BehaviorUnknown            Behavior = "unknown"
)

// apiBehavior maps hooked API names (§III-D) to behaviors.
var apiBehavior = map[string]Behavior{
	// Malware dropping.
	"NtCreateFile":            BehaviorMalwareDropping,
	"URLDownloadToFileA":      BehaviorMalwareDropping,
	"URLDownloadToFileW":      BehaviorMalwareDropping,
	"URLDownloadToCacheFileA": BehaviorMalwareDropping,
	"URLDownloadToCacheFileW": BehaviorMalwareDropping,
	// Network access.
	"connect": BehaviorNetworkAccess,
	"listen":  BehaviorNetworkAccess,
	// Mapped memory search (egg-hunt syscalls).
	"NtAccessCheckAndAuditAlarm": BehaviorMappedMemorySearch,
	"IsBadReadPtr":               BehaviorMappedMemorySearch,
	"NtDisplayString":            BehaviorMappedMemorySearch,
	"NtAddAtom":                  BehaviorMappedMemorySearch,
	// Process creation.
	"NtCreateProcess":     BehaviorProcessCreation,
	"NtCreateProcessEx":   BehaviorProcessCreation,
	"NtCreateUserProcess": BehaviorProcessCreation,
	// DLL injection.
	"CreateRemoteThread": BehaviorDLLInjection,
	// Synthetic memory reading at JS context boundaries.
	"ctx.mem": BehaviorMemorySample,
}

// Classify maps an API name to its behavior class.
func Classify(api string) Behavior {
	if b, ok := apiBehavior[api]; ok {
		return b
	}
	return BehaviorUnknown
}

// MonitoredAPIs returns the hooked API set (for docs/tests).
func MonitoredAPIs() []string {
	out := make([]string, 0, len(apiBehavior))
	for name := range apiBehavior {
		out = append(out, name)
	}
	return out
}

// Event is one captured API call.
type Event struct {
	// PID is the reader process id.
	PID int `json:"pid"`
	// API is the hooked function name.
	API string `json:"api"`
	// Args are stringified call arguments (paths, hosts, targets).
	Args []string `json:"args,omitempty"`
	// MemMB is the process's PROCESS_MEMORY_COUNTERS_EX PrivateUsage at
	// call time, in MB.
	MemMB float64 `json:"mem_mb"`
	// Seq is a per-sink monotonic sequence number.
	Seq int64 `json:"seq"`
}

// Behavior classifies the event.
func (e Event) Behavior() Behavior { return Classify(e.API) }

// Arg returns the i-th argument or "".
func (e Event) Arg(i int) string {
	if i < len(e.Args) {
		return e.Args[i]
	}
	return ""
}

func (e Event) String() string {
	return fmt.Sprintf("%s(%v) mem=%.1fMB", e.API, e.Args, e.MemMB)
}

// Action is the confinement verdict for one call.
type Action string

// Actions per Table III.
const (
	// ActionAllow lets the original API proceed.
	ActionAllow Action = "allow"
	// ActionReject blocks the call in the hook DLL.
	ActionReject Action = "reject"
	// ActionSandbox blocks the original call; the detector runs the target
	// program inside the sandbox instead.
	ActionSandbox Action = "sandbox"
)

// Decision is the detector's reply to an event.
type Decision struct {
	Action Action `json:"action"`
	// Note is a human-readable rationale for logs.
	Note string `json:"note,omitempty"`
}
