package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/detect"
	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/triage"
	"pdfshield/internal/winos"
)

// The traced run rebuilds the pipeline's per-document flow from the
// layers' public calls, so that the benchmark can time each call from its
// own code: cache lookup, front-end, triage, session set-up or recycle,
// host and attachment opens, judgement and ForgetDoc. Each client owns its
// reader process and its own hook and SOAP servers (whose handlers are the
// shared detector's Event and Notify), so every round trip and every
// handler call is charged to the client, and therefore the document, that
// caused it.

// ledger accumulates one client's per-layer busy time and work counts.
type ledger struct {
	docs int
	// wall is the summed per-document time of the traced flow.
	wall time.Duration

	instrument, parse time.Duration // ContentHash + front-end on misses; its parse share
	cacheSelf         time.Duration // DoContext minus the front-end it wraps
	lookups, hits     int

	triage          time.Duration
	triaged, static int

	session, open, judge time.Duration

	deepOpen              time.Duration // open time of forced-execution opens
	deepPaths, deepBudget int

	hookEvents, soapMsgs int
	hookRTT, soapRTT     time.Duration // client side
	// hookHandler and soapHandler are the detector's handler time (server
	// side); total fills them in.
	hookHandler, soapHandler time.Duration
}

// busy is the time the ledger attributes to named layers. The hook and
// SOAP round trips happen inside the reader opens and are not added again.
func (l *ledger) busy() time.Duration {
	return l.instrument + l.cacheSelf + l.triage + l.session + l.open + l.judge
}

func (l *ledger) add(o *ledger) {
	l.docs += o.docs
	l.wall += o.wall
	l.instrument += o.instrument
	l.parse += o.parse
	l.cacheSelf += o.cacheSelf
	l.lookups += o.lookups
	l.hits += o.hits
	l.triage += o.triage
	l.triaged += o.triaged
	l.static += o.static
	l.session += o.session
	l.open += o.open
	l.judge += o.judge
	l.deepOpen += o.deepOpen
	l.deepPaths += o.deepPaths
	l.deepBudget += o.deepBudget
	l.hookEvents += o.hookEvents
	l.soapMsgs += o.soapMsgs
	l.hookRTT += o.hookRTT
	l.soapRTT += o.soapRTT
	l.hookHandler += o.hookHandler
	l.soapHandler += o.soapHandler
}

// client is one traced lane.
type client struct {
	hookSrv *hook.Server
	soapSrv *soapsrv.Server
	proc    *reader.Process
	sink    hook.Sink
	led     *ledger
	// hookHandler and soapHandler accumulate handler time on the servers'
	// goroutines; the bases are their values when the ledger was reset.
	hookHandler, soapHandler atomic.Int64
	hookBase, soapBase       int64
}

// timedSink times each hook round trip of the reader it is wired into.
type timedSink struct {
	base hook.Sink
	c    *client
}

func (s *timedSink) OnAPICall(ev hook.Event) (hook.Decision, error) {
	start := time.Now()
	d, err := s.base.OnAPICall(ev)
	s.c.led.hookRTT += time.Since(start)
	s.c.led.hookEvents++
	return d, err
}

func (s *timedSink) Close() error { return s.base.Close() }

// timedTransport times the client side of each SOAP context message. The
// reader's SOAP client uses http.DefaultTransport, and RoundTrip runs on
// the calling client's goroutine; the request's host names the client.
type timedTransport struct {
	base   http.RoundTripper
	byHost map[string]*client
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if c := t.byHost[req.URL.Host]; c != nil {
		c.led.soapRTT += time.Since(start)
		c.led.soapMsgs++
	}
	return resp, err
}

// stack is the traced system: the same components pipeline.NewSystem
// builds, with the benchmark's servers in front of the detector.
type stack struct {
	det     *detect.Detector
	ins     *instrument.Instrumenter
	cache   *cache.Cache
	units   *js.UnitCache
	os      *winos.OS
	triage  bool
	force   *js.ForceConfig
	clients []*client

	keyMu sync.Mutex
	keys  map[string]*sync.Mutex

	restoreTransport func()
}

func newStack(depth pipeline.Depth, clients int) (*stack, error) {
	reg := obs.NewRegistry()
	registry := instrument.NewRegistry(detectorID)
	osState := winos.NewOS()
	det, err := detect.New(detect.Config{Registry: registry, OS: osState, Obs: reg})
	if err != nil {
		return nil, err
	}
	st := &stack{
		det:   det,
		cache: cache.New(cache.Config{}),
		units: js.NewUnitCache(js.DefaultUnitCacheBytes),
		os:    osState,
		keys:  make(map[string]*sync.Mutex),
	}
	switch depth {
	case pipeline.DepthStandard:
	case pipeline.DepthAuto:
		st.triage = true
		st.force = &js.ForceConfig{}
	default:
		return nil, fmt.Errorf("traced flow does not model depth %q", depth)
	}
	tt := &timedTransport{base: http.DefaultTransport, byHost: map[string]*client{}}
	for i := 0; i < clients; i++ {
		c := &client{led: &ledger{}}
		st.clients = append(st.clients, c)
		c.hookSrv = hook.NewServer(func(ev hook.Event) hook.Decision {
			start := time.Now()
			d := det.Event(ev)
			c.hookHandler.Add(int64(time.Since(start)))
			return d
		})
		c.soapSrv = soapsrv.NewServer(func(n soapsrv.Notify, remote string) error {
			start := time.Now()
			err := det.Notify(n, remote)
			c.soapHandler.Add(int64(time.Since(start)))
			return err
		})
		if err := c.hookSrv.Start(); err != nil {
			st.Close()
			return nil, err
		}
		if err := c.soapSrv.Start(); err != nil {
			st.Close()
			return nil, err
		}
		tt.byHost[c.soapSrv.Addr()] = c
	}
	st.ins = instrument.New(registry, instrument.Options{
		Endpoint: st.clients[0].soapSrv.URL(),
		Seed:     instrumentSeed,
		Obs:      reg,
		Units:    st.units,
	})
	orig := http.DefaultTransport
	http.DefaultTransport = tt
	st.restoreTransport = func() { http.DefaultTransport = orig }
	return st, nil
}

// Close stops every reader, hook connection and server of the stack.
func (st *stack) Close() {
	for _, c := range st.clients {
		if c.proc != nil {
			c.proc.Close()
			_ = c.sink.Close()
		}
		_ = c.hookSrv.Close()
		_ = c.soapSrv.Close()
	}
	if st.restoreTransport != nil {
		st.restoreTransport()
	}
}

// resetLedgers starts every client's accounting afresh.
func (st *stack) resetLedgers() {
	for _, c := range st.clients {
		c.led = &ledger{}
		c.hookBase, c.soapBase = c.hookHandler.Load(), c.soapHandler.Load()
	}
}

func (st *stack) total() *ledger {
	t := &ledger{}
	for _, c := range st.clients {
		c.led.hookHandler = time.Duration(c.hookHandler.Load() - c.hookBase)
		c.led.soapHandler = time.Duration(c.soapHandler.Load() - c.soapBase)
		t.add(c.led)
	}
	return t
}

// lockKey serializes opens of one instrumentation key, as the pipeline
// does: cached duplicates share a key and the detector keeps one state per
// key.
func (st *stack) lockKey(key string) func() {
	if key == "" {
		return func() {}
	}
	st.keyMu.Lock()
	m, ok := st.keys[key]
	if !ok {
		m = &sync.Mutex{}
		st.keys[key] = m
	}
	st.keyMu.Unlock()
	m.Lock()
	return m.Unlock
}

// process runs one submission through the traced flow on client ci.
func (st *stack) process(ci int, s submission) outcome {
	c := st.clients[ci]
	led := c.led
	start := time.Now()
	defer func() {
		led.wall += time.Since(start)
		led.docs++
	}()
	raw := s.doc.raw

	t := time.Now()
	hash := instrument.ContentHash(raw)
	led.instrument += time.Since(t)

	var frontEnd time.Duration
	t = time.Now()
	res, err, oc := st.cache.DoContext(context.Background(), hash, func() (*instrument.Result, error) {
		ft := time.Now()
		r, e := st.ins.InstrumentBytesWithHash(s.id, raw, hash)
		frontEnd = time.Since(ft)
		if r != nil {
			led.parse += r.Timing.ParseDecompress
		}
		return r, e
	})
	led.cacheSelf += time.Since(t) - frontEnd
	led.instrument += frontEnd
	led.lookups++
	if oc != cache.OutcomeMiss {
		led.hits++
	}
	if err != nil {
		if errors.Is(err, instrument.ErrNoJavaScript) {
			return outcome{noJS: true}
		}
		return outcome{err: err}
	}

	var route string
	if st.triage {
		t = time.Now()
		d := triage.Evaluate(triage.Config{}, raw, res)
		led.triage += time.Since(t)
		led.triaged++
		route = string(d.Route)
		if d.Route != triage.RouteUncertain {
			led.static++
			return outcome{malicious: d.Route == triage.RouteMalicious, route: route}
		}
	}

	t = time.Now()
	if c.proc == nil {
		tcp, err := hook.Dial(c.hookSrv.Addr())
		if err != nil {
			return outcome{err: err, route: route}
		}
		c.sink = &timedSink{base: tcp, c: c}
		c.proc = reader.NewProcess(reader.Config{
			ViewerVersion: 9.0,
			Sink:          c.sink,
			OS:            st.os,
			DetectorSOAP:  c.soapSrv.URL(),
			Units:         st.units,
		})
	} else {
		c.proc.Reset()
	}
	led.session += time.Since(t)

	key := res.Key.InstrKey
	unlock := st.lockKey(key)
	defer unlock()

	opts := reader.OpenOptions{ForceExec: st.force}
	t = time.Now()
	open, err := c.proc.Open(res.DocID, res.Output, opts)
	if err != nil {
		led.open += time.Since(t)
		return outcome{err: err, route: route}
	}
	opens := []*reader.OpenResult{open}
	for _, emb := range res.Embedded {
		if open.Crashed {
			break
		}
		r, err := c.proc.Open(emb.DocID, emb.Output, opts)
		if err != nil {
			break // a crashed attachment ends the session
		}
		opens = append(opens, r)
	}
	openDur := time.Since(t)
	led.open += openDur
	if st.force != nil {
		led.deepOpen += openDur
		for _, r := range opens {
			led.deepPaths += r.DeepPaths
			led.deepBudget += r.DeepBudgetExhausted
		}
	}

	t = time.Now()
	mal := st.det.IsMalicious(res.DocID)
	for _, emb := range res.Embedded {
		if st.det.IsMalicious(emb.DocID) {
			mal = true
		}
	}
	// The pipeline walks the alert list for the document's first alert;
	// the walk is part of what the judgement costs.
	for _, a := range st.det.Alerts() {
		if a.DocID == res.DocID || strings.HasPrefix(a.DocID, res.DocID+"::") {
			break
		}
	}
	_, _ = st.det.DocStateFor(key)
	st.det.ForgetDoc(key)
	led.judge += time.Since(t)
	return outcome{malicious: mal, route: route}
}

// tracedRun is a --trace 1 run: an untraced pipeline window, then the
// traced flow over the same submissions.
type tracedRun struct {
	untraced *pipelineRun
	traced   window
	led      *ledger
	units    js.UnitCacheStats // unit-cache counter deltas over the traced window
	// mismatches lists submissions whose traced verdict differs from the
	// pipeline's.
	mismatches []string
}

// tracedCap bounds the traced pass at this many untraced windows.
const tracedCap = 4

func runTraced(depth pipeline.Depth, st *stream, clients int, dur time.Duration) (*tracedRun, error) {
	pr, err := runPipeline(depth, st, clients, 1, dur)
	if err != nil {
		return nil, err
	}
	ts, err := newStack(depth, clients)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	if err := warmUp(st, clients, ts.process); err != nil {
		return nil, err
	}
	ts.resetLedgers()
	u0 := ts.units.Stats()
	// The traced pass covers every submission of the untraced window, so
	// parity and the CPU comparison are over the same documents; the cap
	// only guards a traced flow far slower than the pipeline.
	tw := measureWindow(st.subs[:pr.docs()], clients, tracedCap*dur, ts.process)
	u1 := ts.units.Stats()
	run := &tracedRun{untraced: pr, traced: tw, led: ts.total()}
	run.units.Hits = u1.Hits - u0.Hits
	run.units.Misses = u1.Misses - u0.Misses
	for i, o := range tw.outs {
		p := pr.outs[i]
		if o.malicious != p.malicious || o.noJS != p.noJS || o.route != p.route || (o.err == nil) != (p.err == nil) {
			run.mismatches = append(run.mismatches, st.subs[i].id)
		}
	}
	return run, nil
}
