// Package winos is a miniature facade over the Windows-like OS state the
// system observes and confines: a file system for dropped malware, a
// process table, and a quarantine area. The real system hooks ntdll APIs
// inside Acrobat; here the simulated reader process calls into this facade,
// and the hook layer intercepts those calls on the way in.
package winos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrRejected is returned when a hooked call was denied by confinement.
var ErrRejected = errors.New("winos: call rejected by confinement")

// Proc is one process-table entry.
type Proc struct {
	PID       int
	Path      string
	Sandboxed bool
	Alive     bool
	// ParentPID is the spawner (0 for system).
	ParentPID int
}

// OS is the shared fake OS state. The zero value is not usable; use NewOS.
type OS struct {
	mu          sync.Mutex
	files       map[string][]byte
	quarantined map[string]string // path -> reason
	procs       map[int]*Proc
	nextPID     int
	// connections records host:port strings that were allowed through.
	connections []string
	// listens records ports opened for listening.
	listens []int
	// injected records DLL paths that were successfully injected.
	injected []string
	// onReap are the observers Reap notifies (see OnReap).
	onReap []func(pid int)
}

// NewOS returns an empty OS.
func NewOS() *OS {
	return &OS{
		files:       make(map[string][]byte),
		quarantined: make(map[string]string),
		procs:       make(map[int]*Proc),
		nextPID:     1000,
	}
}

// WriteFile creates or overwrites a file.
func (o *OS) WriteFile(path string, data []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.files[normPath(path)] = append([]byte(nil), data...)
}

// ReadFile reads a file.
func (o *OS) ReadFile(path string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	data, ok := o.files[normPath(path)]
	return data, ok
}

// FileExists reports whether a (non-quarantined) file exists.
func (o *OS) FileExists(path string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.files[normPath(path)]
	return ok
}

// Files lists file paths in sorted order.
func (o *OS) Files() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.files))
	for p := range o.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Quarantine moves a file into the quarantine area (confinement "isolate").
func (o *OS) Quarantine(path, reason string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	p := normPath(path)
	if _, ok := o.files[p]; !ok {
		return false
	}
	delete(o.files, p)
	o.quarantined[p] = reason
	return true
}

// Quarantined reports whether a path is quarantined, with its reason.
func (o *OS) Quarantined(path string) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	reason, ok := o.quarantined[normPath(path)]
	return reason, ok
}

// QuarantineCount returns the number of quarantined files.
func (o *OS) QuarantineCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.quarantined)
}

// Spawn adds a process and returns its PID.
func (o *OS) Spawn(path string, parent int, sandboxed bool) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextPID++
	o.procs[o.nextPID] = &Proc{
		PID:       o.nextPID,
		Path:      normPath(path),
		Sandboxed: sandboxed,
		Alive:     true,
		ParentPID: parent,
	}
	return o.nextPID
}

// Terminate kills a process.
func (o *OS) Terminate(pid int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.procs[pid]
	if !ok || !p.Alive {
		return false
	}
	p.Alive = false
	return true
}

// Reap terminates a process and removes it from the process table,
// together with all of its descendants, alive or not: closing a reader
// ends what it started, the programs it was allowed to run and those the
// detector sandboxed on its behalf. The OnReap observers then learn each
// removed PID, so per-process state kept elsewhere dies with the process.
// A recycled reader reaps its old PID, which keeps the table of a
// long-lived OS bounded.
func (o *OS) Reap(pid int) {
	o.mu.Lock()
	if _, ok := o.procs[pid]; !ok {
		o.mu.Unlock()
		return
	}
	reaped := []int{pid}
	delete(o.procs, pid)
	for i := 0; i < len(reaped); i++ {
		for cpid, c := range o.procs {
			if c.ParentPID == reaped[i] {
				delete(o.procs, cpid)
				reaped = append(reaped, cpid)
			}
		}
	}
	observers := o.onReap
	o.mu.Unlock()
	for _, fn := range observers {
		for _, r := range reaped {
			fn(r)
		}
	}
}

// OnReap registers fn to learn every PID that Reap removes. fn runs
// outside the OS lock.
func (o *OS) OnReap(fn func(pid int)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.onReap = append(o.onReap, fn)
}

// ProcessCount returns the number of process-table entries, alive or not.
func (o *OS) ProcessCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.procs)
}

// Process returns a copy of a process-table entry.
func (o *OS) Process(pid int) (Proc, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.procs[pid]
	if !ok {
		return Proc{}, false
	}
	return *p, true
}

// AliveProcesses returns live processes sorted by PID.
func (o *OS) AliveProcesses() []Proc {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []Proc
	for _, p := range o.procs {
		if p.Alive {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// RecordConnection notes an allowed outbound connection.
func (o *OS) RecordConnection(hostport string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.connections = append(o.connections, hostport)
}

// Connections returns recorded outbound connections.
func (o *OS) Connections() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.connections...)
}

// RecordListen notes an opened listening port.
func (o *OS) RecordListen(port int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.listens = append(o.listens, port)
}

// Listens returns recorded listening ports.
func (o *OS) Listens() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]int(nil), o.listens...)
}

// RecordInjection notes a successful DLL injection.
func (o *OS) RecordInjection(dll string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.injected = append(o.injected, normPath(dll))
}

// Injections returns successful DLL injections.
func (o *OS) Injections() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.injected...)
}

// IsExecutablePath applies the Windows-flavoured heuristic used by the
// downloaded-executables list.
func IsExecutablePath(path string) bool {
	p := strings.ToLower(normPath(path))
	for _, ext := range []string{".exe", ".dll", ".scr", ".bat", ".cmd", ".com", ".pif"} {
		if strings.HasSuffix(p, ext) {
			return true
		}
	}
	return false
}

func normPath(p string) string {
	return strings.ToLower(strings.ReplaceAll(p, "/", "\\"))
}

// String renders a summary for diagnostics.
func (o *OS) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return fmt.Sprintf("winos{files=%d quarantined=%d procs=%d conns=%d}",
		len(o.files), len(o.quarantined), len(o.procs), len(o.connections))
}
