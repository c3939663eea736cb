package hook

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// eventLog is a handler that logs every event it is called with and
// echoes the event's strings back in its decision, so decisions carry
// hostile text too.
type eventLog struct {
	mu  sync.Mutex
	got []Event
}

func (l *eventLog) handle(ev Event) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got = append(l.got, ev)
	act := ActionAllow
	if ev.Behavior() == BehaviorDLLInjection {
		act = ActionReject
	}
	return Decision{Action: act, Note: ev.API + "(" + ev.Arg(0) + ")"}
}

func (l *eventLog) take() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	got := l.got
	l.got = nil
	return got
}

// sinkPair is one handler behind both delivery paths.
type sinkPair struct {
	wire, direct *eventLog
	client       *TCPClient
	sink         *DirectSink
}

func newSinkPair(tb testing.TB) *sinkPair {
	tb.Helper()
	p := &sinkPair{wire: &eventLog{}, direct: &eventLog{}}
	srv := NewServer(p.wire.handle)
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	p.client = c
	p.sink = NewDirectSink(p.direct.handle)
	return p
}

// check sends ev down both paths and fails on any difference in decision,
// error text or what the handler received.
func (p *sinkPair) check(tb testing.TB, ev Event) {
	tb.Helper()
	wd, werr := p.client.OnAPICall(ev)
	dd, derr := p.sink.OnAPICall(ev)
	if wd != dd {
		tb.Errorf("decision: wire %+v, direct %+v", wd, dd)
	}
	if errText(werr) != errText(derr) {
		tb.Errorf("error:\n wire   %q\n direct %q", errText(werr), errText(derr))
	}
	if w, d := p.wire.take(), p.direct.take(); !reflect.DeepEqual(w, d) {
		tb.Errorf("handler received: wire %#v, direct %#v", w, d)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDirectSinkMatchesWire pins the in-process sink to the TCP path on
// hostile events: same decision or error, and the handler sees an
// identical Event (with the same per-sink Seq) or is skipped on both.
func TestDirectSinkMatchesWire(t *testing.T) {
	p := newSinkPair(t)
	cases := []Event{
		{PID: 1, API: "NtCreateFile", Args: []string{`C:\x.exe`}, MemMB: 30},
		{PID: 1, API: "ctx.mem", MemMB: 25.5},
		{PID: 1, API: "connect", Args: []string{}, MemMB: 0},
		{PID: 1, API: "connect", Args: []string{"", ""}},
		{PID: 1, API: "CreateRemoteThread", Args: []string{"explorer.exe"}, Seq: 99},
		{PID: -1, API: "NtCreateFile\x00", Args: []string{"a\x00b"}, Seq: -5},
		{PID: math.MaxInt, API: "\xff\xfe", Args: []string{"ok", "\xc3\x28", "\xed\xa0\x80"}, Seq: math.MaxInt64},
		{PID: math.MinInt, API: "<script>&amp;", Args: []string{"\u2028\u2029", "\"\\\n"}},
		{API: "connect", MemMB: math.Copysign(0, -1)},
		{API: "connect", MemMB: math.SmallestNonzeroFloat64},
		{API: "connect", MemMB: math.MaxFloat64},
		{API: "connect", MemMB: math.NaN()},
		{API: "connect", MemMB: math.Inf(1)},
		{API: "connect", MemMB: math.Inf(-1)},
		{API: "connect", Args: []string{"after a failed encode"}},
	}
	for _, ev := range cases {
		p.check(t, ev)
	}
}

// TestDirectSinkClosed mirrors a closed TCPClient: every later call fails
// without reaching the handler.
func TestDirectSinkClosed(t *testing.T) {
	p := newSinkPair(t)
	if err := p.client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.sink.Close(); err != nil {
		t.Fatal(err)
	}
	p.check(t, Event{API: "connect"})
}

// FuzzDirectVsWire drives arbitrary events down both delivery paths; the
// in-process sink must be indistinguishable from the wire.
func FuzzDirectVsWire(f *testing.F) {
	f.Add(1, "NtCreateFile", `C:\x.exe`, "", uint8(1), 30.0)
	f.Add(-1, "\xff\x00", "<&>", "\xed\xa0\x80", uint8(2), math.Inf(1))
	f.Add(math.MaxInt, "connect", "", "", uint8(0), math.Copysign(0, -1))
	p := newSinkPair(f)
	f.Fuzz(func(t *testing.T, pid int, api, arg0, arg1 string, nargs uint8, mem float64) {
		args := []string{arg0, arg1}[:nargs%3]
		p.check(t, Event{PID: pid, API: api, Args: args, MemMB: mem})
	})
}
