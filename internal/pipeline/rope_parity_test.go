package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	_ "unsafe" // go:linkname

	"pdfshield/internal/corpus"
	"pdfshield/internal/reader"
)

// ropeMinBytes is the script engine's rope threshold. The engine exposes
// no knob for it; this test reaches it directly to run a flat-string
// reference.
//
//go:linkname ropeMinBytes pdfshield/internal/js.ropeMinBytes
var ropeMinBytes int

// TestRopeSprayParity opens every malicious family — every spraying
// family, mal-crasher and mal-crasher-clean among them — at standard and
// deep depth, once with rope strings and once fully flat, over the same
// instrumented bytes and keys. Exploit stages, decoded payload ops,
// verdicts, alerts and the canonical detector stream (feature triggers,
// memory samples, malscores) must be identical.
func TestRopeSprayParity(t *testing.T) {
	for _, depth := range []Depth{DepthStandard, DepthDeep} {
		t.Run(string(depth), func(t *testing.T) {
			g := corpus.NewGenerator(1717)
			var docs []BatchDoc
			for _, fam := range corpus.MaliciousFamilies() {
				s, _ := g.MaliciousFamily(fam)
				docs = append(docs, BatchDoc{ID: fam, Raw: s.Raw})
			}
			base := parityBase(t, depth, docs)

			prev := ropeMinBytes
			ropeMinBytes = math.MaxInt
			flat := runParity(t, base, docs, false)
			ropeMinBytes = prev
			roped := runParity(t, base, docs, false)

			shellcode := 0
			for i, d := range docs {
				fv, rv := flat.verdicts[i], roped.verdicts[i]
				if fmt.Sprint(flat.errs[i]) != fmt.Sprint(roped.errs[i]) || fv == nil || rv == nil {
					t.Fatalf("%s: error flat %v, roped %v", d.ID, flat.errs[i], roped.errs[i])
				}
				if fv.Malicious != rv.Malicious || fv.Crashed != rv.Crashed ||
					fv.FeatureVector != rv.FeatureVector || !reflect.DeepEqual(fv.Alert, rv.Alert) {
					t.Errorf("%s: verdict flat %+v alert %+v, roped %+v alert %+v", d.ID, fv, fv.Alert, rv, rv.Alert)
				}
				if fv.Open == nil || rv.Open == nil || !reflect.DeepEqual(fv.Open.Exploits, rv.Open.Exploits) {
					t.Errorf("%s: exploits flat %+v, roped %+v", d.ID, fv.Open, rv.Open)
					continue
				}
				for _, e := range fv.Open.Exploits {
					if e.Stage == reader.StageShellcode && len(e.Payload) > 0 {
						shellcode++
					}
				}
			}
			if shellcode == 0 {
				t.Fatal("no family reached a decoded spray payload; the test checks nothing")
			}
			if !reflect.DeepEqual(flat.alerts, roped.alerts) {
				t.Errorf("alerts differ:\n flat  %+v\n roped %+v", flat.alerts, roped.alerts)
			}
			if !reflect.DeepEqual(flat.canon, roped.canon) {
				t.Errorf("canonical journal streams differ (%d vs %d events)", len(flat.canon), len(roped.canon))
				for i := range min(len(flat.canon), len(roped.canon)) {
					if flat.canon[i] != roped.canon[i] {
						t.Errorf("first difference at %d:\n flat  %s\n roped %s", i, flat.canon[i], roped.canon[i])
						break
					}
				}
			}
		})
	}
}
