// Package sandbox is the stand-in for Sandboxie [39], the existing sandbox
// tool the paper's confinement uses to run target programs before an alert
// is decided (Table III). It confines processes inside the fake OS: a
// sandboxed process runs, but on alert it is terminated and its executable
// isolated.
package sandbox

import (
	"sync"

	"pdfshield/internal/winos"
)

// Sandbox runs programs in a confined environment.
type Sandbox struct {
	os *winos.OS

	mu    sync.Mutex
	procs map[int]string // pid -> exe path
}

// New returns a sandbox over the fake OS. A sandboxed process the OS
// reaps (its reader closed) leaves the sandbox too.
func New(osState *winos.OS) *Sandbox {
	s := &Sandbox{os: osState, procs: make(map[int]string)}
	osState.OnReap(s.forget)
	return s
}

// Run launches path inside the sandbox and returns the pid.
func (s *Sandbox) Run(path string, parentPID int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	pid := s.os.Spawn(path, parentPID, true)
	s.procs[pid] = path
	return pid
}

// forget drops a reaped pid.
func (s *Sandbox) forget(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.procs, pid)
}

// Terminate kills one sandboxed process.
func (s *Sandbox) Terminate(pid int) bool {
	s.mu.Lock()
	_, tracked := s.procs[pid]
	delete(s.procs, pid)
	s.mu.Unlock()
	if !tracked {
		return false
	}
	return s.os.Terminate(pid)
}

// TerminateAll kills every sandboxed process and returns their pids.
func (s *Sandbox) TerminateAll() []int {
	s.mu.Lock()
	pids := make([]int, 0, len(s.procs))
	for pid := range s.procs {
		pids = append(pids, pid)
	}
	s.procs = make(map[int]string)
	s.mu.Unlock()
	for _, pid := range pids {
		s.os.Terminate(pid)
	}
	return pids
}

// Running returns the number of live sandboxed processes.
func (s *Sandbox) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.procs)
}

// PathOf returns the executable of a sandboxed pid.
func (s *Sandbox) PathOf(pid int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[pid]
	return p, ok
}
