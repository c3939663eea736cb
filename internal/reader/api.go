package reader

import (
	"fmt"
	"strings"

	"pdfshield/internal/js"
	"pdfshield/internal/pdf"
	"pdfshield/internal/soapsrv"
)

// newDocInterp builds a Javascript interpreter for one open document with
// the Acrobat API surface installed: app, this (Doc), util, Collab, media,
// spell, SOAP, Net, plus printSeps. Vulnerable entry points feed the
// exploit emulator.
func (p *Process) newDocInterp(od *OpenDoc) *js.Interp {
	it := js.New()
	it.StepLimit = p.cfg.StepLimit
	it.MaxHeap = p.cfg.MaxHeap
	it.Units = p.cfg.Units
	it.OnAlloc = func(delta int64) {
		p.jsHeapBytes += delta
		od.heapBytes += delta
		if p.jsHeapBytes-p.lastSampledHeap >= memSampleStepBytes {
			p.lastSampledHeap = p.jsHeapBytes
			p.emitMemSample()
		}
	}
	it.OnLargeString = func(v js.Value) {
		// Keep only blocks that could carry a payload program, bounded.
		// Contains answers for a concatenated block without building it.
		if !v.Contains(PayloadMarker) {
			return
		}
		if len(od.sprayBlocks) >= maxSprayBlocks {
			copy(od.sprayBlocks, od.sprayBlocks[1:])
			od.sprayBlocks[len(od.sprayBlocks)-1] = v
			return
		}
		od.sprayBlocks = append(od.sprayBlocks, v)
	}

	g := it.Global
	g.Declare("app", js.ObjectValue(p.buildApp(od)))
	docObj := p.buildDoc(od)
	it.This = js.ObjectValue(docObj)
	g.Declare("event", js.ObjectValue(js.NewHostObject("event")))
	g.Declare("util", js.ObjectValue(p.buildUtil(od)))
	g.Declare("Collab", js.ObjectValue(p.buildCollab(od)))
	g.Declare("media", js.ObjectValue(p.buildMedia(od)))
	g.Declare("spell", js.ObjectValue(p.buildSpell(od)))
	g.Declare("SOAP", js.ObjectValue(p.buildSOAP(od)))
	g.Declare("Net", js.ObjectValue(p.buildNet()))
	g.Declare("Date", buildDate())
	return it
}

// The simulated wall clock, frozen at 2013-06-01 00:00:00 UTC (the corpus
// collection era; util.printd renders the same day). A frozen clock keeps
// opens deterministic — journal replay depends on it — and models the
// analysis-time snapshot an instrumented reader takes: time-gated payloads
// ("run only after 2015") stay dormant naturally and are reached only by
// the forced-execution deep-scan tier, while timing checks ("did real
// milliseconds elapse?") always read zero elapsed.
const (
	simClockMillis = 1370044800000
	simClockYear   = 2013
	simClockMonth  = 5 // zero-based June
	simClockDate   = 1
	simClockDay    = 6 // Saturday
)

// buildDate returns the Date constructor. new Date() and Date() both
// produce a date object pinned to the simulated clock regardless of
// arguments (documents in the corpus only ever read the current time).
func buildDate() js.Value {
	return hostFn("Date", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		d := js.NewHostObject("Date")
		millis := func(name string) js.Value {
			return hostFn(name, func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
				return js.NumberValue(simClockMillis), nil
			})
		}
		num := func(name string, v float64) js.Value {
			return hostFn(name, func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
				return js.NumberValue(v), nil
			})
		}
		d.Set("getTime", millis("getTime"))
		d.Set("valueOf", millis("valueOf"))
		d.Set("getFullYear", num("getFullYear", simClockYear))
		d.Set("getYear", num("getYear", simClockYear-1900))
		d.Set("getMonth", num("getMonth", simClockMonth))
		d.Set("getDate", num("getDate", simClockDate))
		d.Set("getDay", num("getDay", simClockDay))
		d.Set("getHours", num("getHours", 0))
		d.Set("getMinutes", num("getMinutes", 0))
		d.Set("getSeconds", num("getSeconds", 0))
		d.Set("getMilliseconds", num("getMilliseconds", 0))
		d.Set("toString", hostFn("toString", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
			return js.StringValue("Sat Jun 01 2013 00:00:00 GMT+0000"), nil
		}))
		return js.ObjectValue(d), nil
	})
}

func hostFn(name string, fn js.HostFn) js.Value {
	return js.ObjectValue(js.NewHostFunc(name, fn))
}

func jsArg(args []js.Value, i int) js.Value {
	if i < len(args) {
		return args[i]
	}
	return js.Undefined()
}

// ---- app ----

func (p *Process) buildApp(od *OpenDoc) *js.Object {
	app := js.NewHostObject("app")
	app.Set("viewerVersion", js.NumberValue(p.cfg.ViewerVersion))
	app.Set("viewerType", js.StringValue("Reader"))
	app.Set("platform", js.StringValue("WIN"))
	app.Set("language", js.StringValue("ENU"))
	app.Set("alert", hostFn("alert", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		return js.NumberValue(1), nil // user clicks OK
	}))
	app.Set("beep", hostFn("beep", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	app.Set("setTimeOut", hostFn("setTimeOut", func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		code := jsArg(args, 0)
		if code.IsString() {
			od.timers = append(od.timers, timerEntry{code: code.Str(), ms: jsArg(args, 1).ToNumber()})
		}
		return js.NumberValue(float64(len(od.timers))), nil
	}))
	app.Set("setInterval", hostFn("setInterval", func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		code := jsArg(args, 0)
		if code.IsString() {
			// Executed once in the simulation; real intervals repeat.
			od.timers = append(od.timers, timerEntry{code: code.Str(), ms: jsArg(args, 1).ToNumber()})
		}
		return js.NumberValue(float64(len(od.timers))), nil
	}))
	app.Set("clearTimeOut", hostFn("clearTimeOut", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	// launchURL and mailMsg delegate to third-party applications (browser,
	// mail client), which the runtime detector does not monitor (§III-D):
	// no hooked connect is emitted from this process.
	app.Set("launchURL", hostFn("launchURL", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	app.Set("mailMsg", hostFn("mailMsg", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	return app
}

// ---- Doc (this) ----

func (p *Process) buildDoc(od *OpenDoc) *js.Object {
	doc := js.NewHostObject("Doc")
	info := js.NewObject()
	title := ""
	if od.Doc.Trailer != nil {
		if infoDict, ok := od.Doc.ResolveDict(od.Doc.Trailer.Get("Info")); ok {
			for _, k := range infoDict.SortedKeys() {
				if s, ok := od.Doc.Resolve(infoDict[k]).(pdf.String); ok {
					key := strings.ToLower(string(k))
					info.Set(key, js.StringValue(s.Text()))
					if key == "title" {
						title = s.Text()
					}
				}
			}
		}
	}
	doc.Set("info", js.ObjectValue(info))
	doc.Set("title", js.StringValue(title))
	doc.Set("numPages", js.NumberValue(float64(countPages(od.Doc))))
	doc.Set("pageNum", js.NumberValue(0))

	addDynamic := func(args []js.Value, codeIdx int) {
		code := jsArg(args, codeIdx)
		if code.IsString() && code.Str() != "" {
			od.dynamic = append(od.dynamic, code.Str())
		}
	}
	doc.Set("addScript", hostFn("addScript", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		addDynamic(args, 1)
		return js.Undefined(), nil
	}))
	doc.Set("setAction", hostFn("setAction", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		addDynamic(args, len(args)-1)
		return js.Undefined(), nil
	}))
	doc.Set("setPageAction", hostFn("setPageAction", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		addDynamic(args, len(args)-1)
		return js.Undefined(), nil
	}))
	doc.Set("getField", hostFn("getField", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		field := js.NewObject()
		field.Set("name", jsArg(args, 0))
		field.Set("value", js.StringValue(""))
		field.Set("setAction", hostFn("setAction", func(_ *js.Interp, _ js.Value, fargs []js.Value) (js.Value, error) {
			addDynamic(fargs, len(fargs)-1)
			return js.Undefined(), nil
		}))
		return js.ObjectValue(field), nil
	}))
	doc.Set("bookmarkRoot", js.ObjectValue(p.buildBookmark(od)))
	doc.Set("getAnnots", hostFn("getAnnots", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		// CVE-2009-1492 lives here; not exploitable on the simulated
		// versions, matching the 58 "did nothing" samples in §V-C.
		od.exploits = append(od.exploits, ExploitEvent{CVE: CVE20091492, Stage: StageNotVulnerable, InJS: true})
		return js.ObjectValue(js.NewArray()), nil
	}))
	doc.Set("syncAnnotScan", hostFn("syncAnnotScan", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	doc.Set("printSeps", hostFn("printSeps", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return p.vulnCall(od, CVE20104091)
	}))
	doc.Set("closeDoc", hostFn("closeDoc", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	doc.Set("calculateNow", hostFn("calculateNow", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	return doc
}

func (p *Process) buildBookmark(od *OpenDoc) *js.Object {
	bm := js.NewHostObject("Bookmark")
	bm.Set("name", js.StringValue("root"))
	bm.Set("setAction", hostFn("setAction", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		code := jsArg(args, len(args)-1)
		if code.IsString() && code.Str() != "" {
			od.dynamic = append(od.dynamic, code.Str())
		}
		return js.Undefined(), nil
	}))
	return bm
}

func countPages(doc *pdf.Document) int {
	count := 0
	for _, num := range doc.Numbers() {
		obj, _ := doc.Get(num)
		if d, ok := obj.Object.(pdf.Dict); ok {
			if t, _ := d.Get("Type").(pdf.Name); t == "Page" {
				count++
			}
		}
	}
	return count
}

// ---- util ----

// printfWidthLimit is the format-width beyond which util.printf overflows
// its stack buffer (CVE-2008-2992 used %45000f).
const printfWidthLimit = 4096

func (p *Process) buildUtil(od *OpenDoc) *js.Object {
	util := js.NewHostObject("util")
	util.Set("printf", hostFn("printf", func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		format := jsArg(args, 0)
		if format.IsString() && maxFormatWidth(format.Str()) >= printfWidthLimit {
			return p.vulnCall(od, CVE20082992)
		}
		// Benign path: a minimal %s/%d/%f formatter.
		return js.StringValue(miniSprintf(format.Str(), args[1:])), nil
	}))
	util.Set("printd", hostFn("printd", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		return js.StringValue("2013/06/01"), nil
	}))
	util.Set("printx", hostFn("printx", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		return jsArg(args, 1), nil
	}))
	util.Set("byteToChar", hostFn("byteToChar", func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		return js.StringValue(string(rune(int(jsArg(args, 0).ToNumber()) & 0xff))), nil
	}))
	util.Set("stringFromStream", hostFn("stringFromStream", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.StringValue(""), nil
	}))
	return util
}

// maxFormatWidth extracts the largest numeric width in a printf format.
func maxFormatWidth(format string) int {
	maxWidth := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		j := i + 1
		width := 0
		for j < len(format) && format[j] >= '0' && format[j] <= '9' {
			width = width*10 + int(format[j]-'0')
			j++
		}
		if width > maxWidth {
			maxWidth = width
		}
		i = j
	}
	return maxWidth
}

// miniSprintf implements the %s %d %f subset benign documents use.
func miniSprintf(format string, args []js.Value) string {
	var sb strings.Builder
	argIdx := 0
	nextArg := func() js.Value {
		if argIdx < len(args) {
			v := args[argIdx]
			argIdx++
			return v
		}
		return js.Undefined()
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			sb.WriteByte(c)
			continue
		}
		i++
		// Skip flags/width/precision.
		for i < len(format) && (format[i] == '.' || format[i] == ',' || (format[i] >= '0' && format[i] <= '9')) {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case 's':
			sb.WriteString(js.ToDisplay(nextArg()))
		case 'd':
			sb.WriteString(fmt.Sprintf("%d", int64(nextArg().ToNumber())))
		case 'f':
			sb.WriteString(fmt.Sprintf("%f", nextArg().ToNumber()))
		case 'x':
			sb.WriteString(fmt.Sprintf("%x", int64(nextArg().ToNumber())))
		case '%':
			sb.WriteByte('%')
		default:
			sb.WriteByte(format[i])
		}
	}
	return sb.String()
}

// ---- Collab / media / spell ----

const overflowArgLen = 4096

func (p *Process) buildCollab(od *OpenDoc) *js.Object {
	collab := js.NewHostObject("Collab")
	collab.Set("getIcon", hostFn("getIcon", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		name := jsArg(args, 0)
		if name.IsString() && name.StrLen() >= overflowArgLen {
			return p.vulnCall(od, CVE20090927)
		}
		return js.Undefined(), nil
	}))
	collab.Set("collectEmailInfo", hostFn("collectEmailInfo", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		return js.Undefined(), nil
	}))
	return collab
}

func (p *Process) buildMedia(od *OpenDoc) *js.Object {
	media := js.NewHostObject("media")
	media.Set("newPlayer", hostFn("newPlayer", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		// The public CVE-2009-4324 exploit calls media.newPlayer(null).
		if jsArg(args, 0).IsNull() {
			return p.vulnCall(od, CVE20094324)
		}
		return js.ObjectValue(js.NewObject()), nil
	}))
	return media
}

func (p *Process) buildSpell(od *OpenDoc) *js.Object {
	spell := js.NewHostObject("spell")
	spell.Set("customDictionaryOpen", hostFn("customDictionaryOpen", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		path := jsArg(args, 1)
		if !path.IsString() {
			path = jsArg(args, 0)
		}
		if path.IsString() && path.StrLen() >= overflowArgLen {
			return p.vulnCall(od, CVE20091493)
		}
		return js.Undefined(), nil
	}))
	return spell
}

// vulnCall funnels a triggered vulnerable API into the exploit emulator.
func (p *Process) vulnCall(od *OpenDoc, cve string) (js.Value, error) {
	stage := p.attemptExploit(od, cve, nil, true)
	if stage == StageCrash {
		return js.Undefined(), &js.FatalError{Err: fmt.Errorf("access violation in %s", cve)}
	}
	return js.Undefined(), nil
}

// ---- SOAP / Net ----

// buildSOAP implements the SOAP object: requests addressed to a context
// endpoint (path suffix "/ctx") go to the live detector; anything else is
// ordinary network traffic through the hooked connect path.
func (p *Process) buildSOAP(od *OpenDoc) *js.Object {
	soap := js.NewHostObject("SOAP")
	soap.Set("request", hostFn("request", func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		req := jsArg(args, 0).Object()
		if req == nil {
			return js.Undefined(), &js.ThrowError{Value: js.StringValue("SOAP.request: bad argument")}
		}
		curlV, _ := req.GetOwn("cURL")
		curl := curlV.Str()
		if strings.HasSuffix(strings.Split(curl, "?")[0], "/ctx") && p.detector != nil {
			return p.soapToDetector(it, req)
		}
		// Ordinary web-service SOAP: a network access in JS context.
		host := hostOf(curl)
		if !p.sysConnect(host) {
			return js.Undefined(), &js.ThrowError{Value: js.StringValue("SOAP.request: connection refused")}
		}
		resp := js.NewObject()
		resp.Set("status", js.NumberValue(200))
		return js.ObjectValue(resp), nil
	}))
	soap.Set("connect", hostFn("connect", func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		url := jsArg(args, 0)
		host := hostOf(url.Str())
		if !p.sysConnect(host) {
			return js.Undefined(), &js.ThrowError{Value: js.StringValue("SOAP.connect: refused")}
		}
		return js.ObjectValue(js.NewObject()), nil
	}))
	return soap
}

// soapToDetector delivers a context notification to the live detector. The
// hook DLL's memory sample is emitted first so the detector has a fresh
// reading at the context boundary; communications with the detector are
// whitelisted and produce no network-access event.
func (p *Process) soapToDetector(it *js.Interp, req *js.Object) (js.Value, error) {
	p.emitMemSample()
	oreqV, _ := req.GetOwn("oRequest")
	oreq := oreqV.Object()
	if oreq == nil {
		return js.Undefined(), &js.ThrowError{Value: js.StringValue("SOAP.request: missing oRequest")}
	}
	ev, _ := oreq.GetOwn("Event")
	key, _ := oreq.GetOwn("Key")
	seq, _ := oreq.GetOwn("Seq")
	status, err := p.detector.Send(soapsrv.Notify{Event: ev.Str(), Key: key.Str(), Seq: int(seq.ToNumber()), PID: p.PID})
	if err != nil {
		// Faults (e.g. fake-message rejection) surface as catchable JS
		// errors; the zero-tolerance consequence already fired inside the
		// detector.
		return js.Undefined(), &js.ThrowError{Value: js.StringValue("SOAP fault: " + err.Error())}
	}
	resp := js.NewObject()
	resp.Set("status", js.StringValue(status))
	return js.ObjectValue(resp), nil
}

// buildNet exposes Net with an HTTP object whose use inside documents is
// forbidden, as the Acrobat API reference specifies.
func (p *Process) buildNet() *js.Object {
	net := js.NewHostObject("Net")
	httpObj := js.NewHostObject("Net.HTTP")
	httpObj.Set("request", hostFn("request", func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		return js.Undefined(), &js.ThrowError{Value: js.StringValue("NotAllowedError: Net.HTTP cannot be invoked from a document")}
	}))
	net.Set("HTTP", js.ObjectValue(httpObj))
	return net
}
