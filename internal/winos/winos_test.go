package winos

import (
	"slices"
	"testing"
)

func TestFileLifecycle(t *testing.T) {
	o := NewOS()
	o.WriteFile(`C:\Tmp\a.exe`, []byte("MZ1"))
	if !o.FileExists(`c:\tmp\A.EXE`) {
		t.Error("case/slash-insensitive lookup failed")
	}
	data, ok := o.ReadFile("C:/tmp/a.exe")
	if !ok || string(data) != "MZ1" {
		t.Errorf("read = %q %v", data, ok)
	}
	if len(o.Files()) != 1 {
		t.Errorf("files = %v", o.Files())
	}
}

func TestQuarantine(t *testing.T) {
	o := NewOS()
	o.WriteFile(`C:\x.dll`, []byte("MZ"))
	if !o.Quarantine(`C:\x.dll`, "test") {
		t.Fatal("quarantine failed")
	}
	if o.FileExists(`C:\x.dll`) {
		t.Error("file still visible")
	}
	if reason, ok := o.Quarantined(`C:\x.dll`); !ok || reason != "test" {
		t.Errorf("reason = %q %v", reason, ok)
	}
	if o.QuarantineCount() != 1 {
		t.Error("count wrong")
	}
	if o.Quarantine(`C:\missing`, "x") {
		t.Error("quarantined a missing file")
	}
}

func TestProcessTable(t *testing.T) {
	o := NewOS()
	pid := o.Spawn(`C:\reader.exe`, 0, false)
	child := o.Spawn(`C:\mal.exe`, pid, true)
	if p, ok := o.Process(child); !ok || !p.Sandboxed || p.ParentPID != pid {
		t.Errorf("child = %+v %v", p, ok)
	}
	if len(o.AliveProcesses()) != 2 {
		t.Error("alive count wrong")
	}
	if !o.Terminate(child) {
		t.Error("terminate failed")
	}
	if o.Terminate(child) {
		t.Error("double terminate succeeded")
	}
	if len(o.AliveProcesses()) != 1 {
		t.Error("alive after terminate wrong")
	}
}

func TestNetworkRecords(t *testing.T) {
	o := NewOS()
	o.RecordConnection("c2.test:443")
	o.RecordListen(4444)
	o.RecordInjection(`C:\evil.dll`)
	if len(o.Connections()) != 1 || len(o.Listens()) != 1 || len(o.Injections()) != 1 {
		t.Errorf("records: %v %v %v", o.Connections(), o.Listens(), o.Injections())
	}
}

func TestIsExecutablePath(t *testing.T) {
	for _, p := range []string{`a.exe`, `B.DLL`, `x.scr`, `y.bat`, `z.cmd`, `w.com`, `v.pif`} {
		if !IsExecutablePath(p) {
			t.Errorf("%s should be executable", p)
		}
	}
	for _, p := range []string{`a.txt`, `b.pdf`, `noext`, `exe.doc`} {
		if IsExecutablePath(p) {
			t.Errorf("%s should not be executable", p)
		}
	}
}

// TestReapRemovesDescendants: reaping a process removes its whole tree,
// live and exited descendants alike, and tells the observers each PID.
func TestReapRemovesDescendants(t *testing.T) {
	o := NewOS()
	var reaped []int
	o.OnReap(func(pid int) { reaped = append(reaped, pid) })
	pid := o.Spawn(`C:\reader.exe`, 0, false)
	child := o.Spawn(`C:\helper.exe`, pid, false)
	grandchild := o.Spawn(`C:\mal.exe`, child, true)
	o.Terminate(o.Spawn(`C:\done.exe`, pid, true))
	unrelated := o.Spawn(`C:\other.exe`, 0, false)
	o.Reap(pid)
	if n := o.ProcessCount(); n != 1 {
		t.Errorf("process table holds %d entries, want 1", n)
	}
	if _, ok := o.Process(unrelated); !ok {
		t.Error("an unrelated process was reaped")
	}
	if len(reaped) != 4 || !slices.Contains(reaped, grandchild) {
		t.Errorf("observers learned %v, want the reader and its 3 descendants", reaped)
	}
}
