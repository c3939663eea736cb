package sandbox

import (
	"testing"

	"pdfshield/internal/winos"
)

func TestRunAndTerminate(t *testing.T) {
	o := winos.NewOS()
	s := New(o)
	pid := s.Run(`C:\mal.exe`, 1)
	if s.Running() != 1 {
		t.Fatal("not running")
	}
	p, ok := o.Process(pid)
	if !ok || !p.Sandboxed || !p.Alive {
		t.Fatalf("process = %+v", p)
	}
	if path, ok := s.PathOf(pid); !ok || path != `C:\mal.exe` {
		t.Errorf("PathOf = %q %v", path, ok)
	}
	if !s.Terminate(pid) {
		t.Fatal("terminate failed")
	}
	if s.Running() != 0 {
		t.Error("still tracked")
	}
	if p, _ := o.Process(pid); p.Alive {
		t.Error("still alive in OS")
	}
	if s.Terminate(pid) {
		t.Error("double terminate")
	}
}

func TestTerminateAll(t *testing.T) {
	o := winos.NewOS()
	s := New(o)
	for i := 0; i < 3; i++ {
		s.Run(`C:\x.exe`, 1)
	}
	pids := s.TerminateAll()
	if len(pids) != 3 || s.Running() != 0 {
		t.Errorf("pids = %v running = %d", pids, s.Running())
	}
	if len(o.AliveProcesses()) != 0 {
		t.Error("processes survived")
	}
}

func TestTerminateUntracked(t *testing.T) {
	o := winos.NewOS()
	s := New(o)
	foreign := o.Spawn(`C:\other.exe`, 0, false)
	if s.Terminate(foreign) {
		t.Error("terminated a process the sandbox does not own")
	}
	if p, _ := o.Process(foreign); !p.Alive {
		t.Error("foreign process killed")
	}
}

// TestReapedReaderEndsItsSandboxedPrograms: reaping a reader removes the
// programs sandboxed on its behalf from the process table and from the
// sandbox, alive or not; other readers' programs keep running.
func TestReapedReaderEndsItsSandboxedPrograms(t *testing.T) {
	o := winos.NewOS()
	s := New(o)
	reader, other := o.Spawn(`C:\reader.exe`, 0, false), o.Spawn(`C:\reader.exe`, 0, false)
	s.Run(`C:\a.exe`, reader)
	s.Terminate(s.Run(`C:\b.exe`, reader))
	kept := s.Run(`C:\c.exe`, other)
	o.Reap(reader)
	if s.Running() != 1 {
		t.Errorf("sandbox tracks %d programs, want 1", s.Running())
	}
	if _, ok := s.PathOf(kept); !ok {
		t.Error("another reader's program left the sandbox")
	}
	if n := o.ProcessCount(); n != 2 {
		t.Errorf("process table holds %d entries, want 2 (the other reader and its program)", n)
	}
}
