package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/pdf"
	"pdfshield/internal/triage"
)

// objStmProbe packs a JavaScript OpenAction into an uncompressed /ObjStm
// indexed by an /XRef stream — the layout any re-saver emits ("save
// optimised", qpdf --object-streams=generate). The parser reads neither,
// so the action is invisible to chain reconstruction. hexNames spells
// both stream types with #xx escapes.
func objStmProbe(script string, hexNames bool) []byte {
	objStm, xref := "/ObjStm", "/XRef"
	if hexNames {
		objStm, xref = "/Obj#53tm", "/X#52ef"
	}
	var b bytes.Buffer
	offsets := make([]int, 7)
	b.WriteString("%PDF-1.5\n%\xe2\xe3\xcf\xd3\n")
	obj := func(num int, body string) {
		offsets[num] = b.Len()
		fmt.Fprintf(&b, "%d 0 obj\n%s\nendobj\n", num, body)
	}
	obj(1, "<< /Type /Catalog /Pages 2 0 R /OpenAction 4 0 R >>")
	obj(2, "<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
	obj(3, "<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] >>")
	header := "4 0 "
	body := header + fmt.Sprintf("<< /S /JavaScript /JS <%x> >>", script)
	obj(5, fmt.Sprintf("<< /Type %s /N 1 /First %d /Length %d >>\nstream\n%s\nendstream", objStm, len(header), len(body), body))

	// Cross-reference stream, /W [1 4 2]: object 4 is entry 0 of stream 5.
	offsets[6] = b.Len()
	var x bytes.Buffer
	entry := func(typ byte, f2 uint32, f3 uint16) {
		x.WriteByte(typ)
		_ = binary.Write(&x, binary.BigEndian, f2)
		_ = binary.Write(&x, binary.BigEndian, f3)
	}
	entry(0, 0, 65535)
	for num := 1; num <= 6; num++ {
		if num == 4 {
			entry(2, 5, 0)
			continue
		}
		entry(1, uint32(offsets[num]), 0)
	}
	fmt.Fprintf(&b, "6 0 obj\n<< /Type %s /Size 7 /W [1 4 2] /Root 1 0 R /Length %d >>\nstream\n", xref, x.Len())
	b.Write(x.Bytes())
	b.WriteString("\nendstream\nendobj\n")
	fmt.Fprintf(&b, "startxref\n%d\n%%%%EOF\n", offsets[6])
	return b.Bytes()
}

// TestObjectStreamFailSafe pins the object-stream fail-safe: a working
// mal-geticon script moved into an object stream must never come back
// out of scope (NoJavaScript). Standard and deep return a typed error;
// static and auto route the document uncertain.
func TestObjectStreamFailSafe(t *testing.T) {
	s, ok := corpus.NewGenerator(7).MaliciousFamily("mal-geticon")
	if !ok {
		t.Fatal("family missing")
	}
	_, chains, _, err := instrument.Analyze(s.Raw)
	if err != nil || len(chains.Chains) != 1 {
		t.Fatalf("mal-geticon sample: %d chains, err %v", len(chains.Chains), err)
	}
	script := chains.Chains[0].Source

	// Control: the same script as a plain action is convicted.
	v, err := depthSystem(t, DepthStandard, nil).ProcessDocumentContext(t.Context(), "control", scriptDoc(t, script))
	if err != nil || !v.Malicious {
		t.Fatalf("control not convicted: err=%v verdict=%+v", err, v)
	}

	for _, hex := range []bool{false, true} {
		raw := objStmProbe(script, hex)
		for _, d := range []Depth{DepthStandard, DepthDeep, DepthStatic, DepthAuto} {
			name := fmt.Sprintf("hex=%v/%s", hex, d)
			v, err := depthSystem(t, d, nil).ProcessDocumentContext(t.Context(), "probe", raw)
			if v != nil && v.NoJavaScript {
				t.Fatalf("%s: object-stream document reported NoJavaScript", name)
			}
			switch d {
			case DepthStandard, DepthDeep:
				if !errors.Is(err, instrument.ErrUnresolvedObjectStreams) {
					t.Fatalf("%s: err = %v, want ErrUnresolvedObjectStreams", name, err)
				}
			default:
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if v.TriageRoute != string(triage.RouteUncertain) || !slices.Contains(v.Triage.Uncertain, "objstm-unresolved") {
					t.Fatalf("%s: route %q, uncertain %v", name, v.TriageRoute, v.Triage.Uncertain)
				}
			}
		}
	}
}

// attachmentDoc builds a document whose catalog carries attachment as an
// /EmbeddedFile stream and, when script is non-empty, runs script as its
// OpenAction.
func attachmentDoc(t *testing.T, script string, attachment []byte) []byte {
	t.Helper()
	d := pdf.NewDocument()
	catalog := pdf.Dict{"Type": pdf.Name("Catalog")}
	catalog["Names"] = d.Add(&pdf.Stream{Dict: pdf.Dict{"Type": pdf.Name("EmbeddedFile")}, Raw: attachment})
	if script != "" {
		js := d.Add(pdf.String{Value: []byte(script)})
		catalog["OpenAction"] = d.Add(pdf.Dict{"S": pdf.Name("JavaScript"), "JS": js})
	}
	d.Trailer["Root"] = d.Add(catalog)
	raw, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestObjectStreamAttachmentKeepsHost pins that an attachment the
// fail-safe flags never hides its host. A mal-geticon host carrying a
// scriptless object-stream PDF is opened and convicted at standard and
// deep, and convicted at auto (where triage may do so without an open).
// A scriptless host carrying it is never out of scope.
func TestObjectStreamAttachmentKeepsHost(t *testing.T) {
	s, ok := corpus.NewGenerator(7).MaliciousFamily("mal-geticon")
	if !ok {
		t.Fatal("family missing")
	}
	_, chains, _, err := instrument.Analyze(s.Raw)
	if err != nil || len(chains.Chains) != 1 {
		t.Fatalf("mal-geticon sample: %d chains, err %v", len(chains.Chains), err)
	}
	attachment := objStmProbe("", false)

	host := attachmentDoc(t, chains.Chains[0].Source, attachment)
	for _, d := range []Depth{DepthStandard, DepthDeep, DepthAuto} {
		v, err := depthSystem(t, d, nil).ProcessDocumentContext(t.Context(), "host", host)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if !v.Malicious || (v.Open == nil && d != DepthAuto) {
			t.Fatalf("%s: malicious=%v opened=%v route=%q", d, v.Malicious, v.Open != nil, v.TriageRoute)
		}
		if !v.Instrument.UnresolvedObjectStreams {
			t.Fatalf("%s: host result lost the attachment's object-stream flag", d)
		}
	}

	bare := attachmentDoc(t, "", attachment)
	for _, d := range []Depth{DepthStandard, DepthAuto} {
		v, err := depthSystem(t, d, nil).ProcessDocumentContext(t.Context(), "bare", bare)
		if v != nil && v.NoJavaScript {
			t.Fatalf("%s: host of an object-stream attachment reported NoJavaScript", d)
		}
		if d == DepthStandard {
			if !errors.Is(err, instrument.ErrUnresolvedObjectStreams) {
				t.Fatalf("%s: err = %v, want ErrUnresolvedObjectStreams", d, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if v.TriageRoute != string(triage.RouteUncertain) || !slices.Contains(v.Triage.Uncertain, "objstm-unresolved") {
			t.Fatalf("%s: route %q, uncertain %v", d, v.TriageRoute, v.Triage.Uncertain)
		}
	}
}
