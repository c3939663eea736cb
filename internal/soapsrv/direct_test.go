package soapsrv

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// diffKey is the one key the differential handler accepts.
const diffKey = "det:ik"

// recorder is a handler that logs every notification it is called with
// and rejects all keys but diffKey, quoting the key in the fault the way
// the detector's fake-message errors quote attacker input.
type recorder struct {
	mu  sync.Mutex
	got []Notify
}

func (r *recorder) handle(n Notify, _ string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, n)
	if n.Key != diffKey {
		return fmt.Errorf("fake message: unknown key %s", n.Key)
	}
	return nil
}

// take returns and clears the log.
func (r *recorder) take() []Notify {
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.got
	r.got = nil
	return got
}

// wirePair is one handler behind both delivery paths.
type wirePair struct {
	wire, direct *recorder
	client       *Client
	notifier     *Direct
}

func newWirePair(tb testing.TB) *wirePair {
	tb.Helper()
	p := &wirePair{wire: &recorder{}, direct: &recorder{}}
	srv := NewServer(p.wire.handle)
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	p.client = NewClient(srv.URL())
	p.notifier = NewDirect(p.direct.handle)
	return p
}

// check sends n down both paths and fails on any difference in status,
// error text or what the handler received.
func (p *wirePair) check(tb testing.TB, n Notify) {
	tb.Helper()
	ws, werr := p.client.Send(n)
	ds, derr := p.notifier.Send(n)
	if ws != ds {
		tb.Errorf("status: wire %q, direct %q", ws, ds)
	}
	if errText(werr) != errText(derr) {
		tb.Errorf("error:\n wire   %q\n direct %q", errText(werr), errText(derr))
	}
	if w, d := p.wire.take(), p.direct.take(); !reflect.DeepEqual(w, d) {
		tb.Errorf("handler received: wire %+v, direct %+v", w, d)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDirectMatchesWire pins the in-process notifier to the HTTP path on
// hostile notifications: same status or fault text, and the handler sees
// an identical Notify or is skipped on both.
func TestDirectMatchesWire(t *testing.T) {
	p := newWirePair(t)
	cases := []Notify{
		{Event: EventEnter, Key: diffKey, Seq: 1, PID: 42},
		{Event: EventExit, Key: diffKey, Seq: 2, PID: 42},
		{Event: EventEnter, Key: diffKey},
		{Event: "bogus", Key: diffKey, Seq: 1},
		{Event: "", Key: diffKey},
		{Event: "ENTER", Key: diffKey},
		{Event: "enter\x00", Key: diffKey},
		{Event: "exit\xff", Key: diffKey},
		{Event: EventEnter, Key: "det:i\x00k"},
		{Event: EventEnter, Key: "det:\xff\xfe\xfd"},
		{Event: EventEnter, Key: "det:\xed\xa0\x80"}, // encoded surrogate half
		{Event: EventEnter, Key: `<Key>&amp;"'</Key>]]>`},
		{Event: EventExit, Key: "det:ik\r\n\t "},
		{Event: EventExit, Key: " det:ik "},
		{Event: EventEnter, Key: "det:￾￿�"},
		{Event: EventEnter, Key: "\x7f\x01\x1b"},
		{Event: EventEnter, Key: diffKey, Seq: -1, PID: -7},
		{Event: EventExit, Key: diffKey, Seq: math.MaxInt, PID: math.MaxInt},
		{Event: EventExit, Key: diffKey, Seq: math.MinInt, PID: math.MinInt},
		{Event: EventEnter, Key: "det:000000000000000000000000"},
		{Event: EventExit, Key: "other:ik"},
		{Event: EventExit, Key: ""},
		{Event: EventEnter, Key: ":"},
		{Event: EventEnter, Key: strings.Repeat("K", plainKeyMax)},
		{Event: EventEnter, Key: strings.Repeat("K", plainKeyMax+1)},
		{Event: EventEnter, Key: strings.Repeat("&", 300<<10)}, // escaping pushes the envelope past the read cap
		{Event: EventExit, Key: strings.Repeat("A", 2<<20)},    // over the read cap as it stands
		{Event: "bogus", Key: strings.Repeat("\x00", 1<<20)},   // invalid event and a capped body
	}
	for _, n := range cases {
		p.check(t, n)
	}
}

// FuzzDirectVsWire drives arbitrary notifications down both delivery
// paths; the in-process notifier must be indistinguishable from the wire.
func FuzzDirectVsWire(f *testing.F) {
	f.Add(EventEnter, diffKey, 1, 42)
	f.Add(EventExit, "det:forged", -1, 0)
	f.Add("bogus", "\x00\xff<&>", math.MaxInt, math.MinInt)
	p := newWirePair(f)
	f.Fuzz(func(t *testing.T, event, key string, seq, pid int) {
		p.check(t, Notify{Event: event, Key: key, Seq: seq, PID: pid})
	})
}
