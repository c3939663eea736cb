package pdf

import (
	"bytes"
	"testing"
	"time"
)

// fuzzParseSeeds are hand-picked documents spanning the parser's branches:
// clean xref documents, hostile /Length lies, hex-escaped names, broken
// xref chains that force the scavenger, and nested-structure stress.
var fuzzParseSeeds = [][]byte{
	// Minimal well-formed document with a real xref table.
	[]byte("%PDF-1.4\n1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n" +
		"2 0 obj\n<< /Type /Pages /Kids [] /Count 0 >>\nendobj\n" +
		"xref\n0 3\n0000000000 65535 f \n0000000009 00000 n \n0000000062 00000 n \n" +
		"trailer\n<< /Size 3 /Root 1 0 R >>\nstartxref\n113\n%%EOF\n"),
	// Stream whose /Length lies; parser must fall back to endstream search.
	[]byte("%PDF-1.7\n1 0 obj\n<< /Length 99999 >>\nstream\nhello world\nendstream\nendobj\n" +
		"trailer\n<< /Root 1 0 R >>\nstartxref\n9\n%%EOF\n"),
	// Hex-escaped names and a Javascript holder (exercises chain walk).
	[]byte("%PDF-1.5\n1 0 obj\n<< /#54ype /#43atalog /OpenAction 2 0 R >>\nendobj\n" +
		"2 0 obj\n<< /S /JavaScript /JS (app.alert\\(1\\);) >>\nendobj\n%%EOF\n"),
	// Broken startxref offset: forces the lenient scavenger path.
	[]byte("%PDF-1.3\n3 0 obj\n[ 1 2.5 (str) <414243> /Nm true false null ]\nendobj\n" +
		"startxref\n424242\n%%EOF\n"),
	// Nested dictionaries and arrays near the depth limit.
	[]byte("%PDF-1.4\n1 0 obj\n<< /A [ [ [ << /B [ (x) ] >> ] ] ] >>\nendobj\n"),
	// Object stream style body plus comments and odd whitespace.
	[]byte("%PDF-1.6\r\n%\xe2\xe3\xcf\xd3\r\n1 0 obj\r<< /K 2 0 R >>\rendobj\r" +
		"2 0 obj\r(literal \\163tring \\( nested \\))\rendobj\r"),
	// Empty / header-only inputs.
	[]byte("%PDF-"),
	[]byte(""),
}

// FuzzParse throws arbitrary bytes at the full-document parser, in both
// lenient and strict modes, then walks every downstream consumer a hostile
// document can reach: chain reconstruction, filter-chain decoding, the
// reference index, re-serialization and owner-password removal. The
// invariant under test is "no panic, no hang" — errors are expected and
// fine.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		_, _ = Parse(data, ParseOptions{Strict: true})
		doc, err := Parse(data, ParseOptions{})
		if err != nil {
			return
		}
		// Everything below runs on attacker-derived structure.
		_, _ = ReconstructChains(doc)
		doc.BuildReferenceIndex()
		doc.CountEmptyObjects()
		for _, num := range doc.Numbers() {
			obj, _ := doc.Get(num)
			if s, ok := obj.Object.(*Stream); ok {
				_, _, _ = DecodeChain(s)
			}
			_ = FormatObject(obj.Object)
		}
		if _, err := Write(doc, WriteOptions{}); err != nil {
			t.Skipf("rewrite failed: %v", err)
		}
		// The front end's owner-password removal runs on the same
		// attacker-built /Encrypt dictionary.
		_ = RemoveOwnerPassword(doc)
	})
}

// fuzzFilterNames indexes the decoder under test by the fuzzer's selector
// byte; keep order stable so corpus entries stay meaningful.
var fuzzFilterNames = []Name{
	FilterFlate, FilterASCIIHex, FilterASCII85, FilterRunLength, FilterLZW,
}

// FuzzFilters drives each stream decoder with arbitrary input and checks the
// encode->decode round trip for whichever codec the selector picks. It also
// decodes a two-level chain (the paper's F5 feature counts chained filters,
// so chains are a first-class attack surface).
func FuzzFilters(f *testing.F) {
	f.Add([]byte("x\x9c\xcbH\xcd\xc9\xc9\x07\x00\x06,\x02\x15"), byte(0)) // zlib "hello"
	f.Add([]byte("48656C6C6F>"), byte(1))
	f.Add([]byte("87cUR;Ei~>"), byte(2))
	f.Add([]byte("\x04hello\x80"), byte(3))
	f.Add([]byte("\x80\x0b\x60\x50\x22\x0c\x0c\x85\x01"), byte(4)) // LZW
	f.Add([]byte("\xff\xff\xff\xff"), byte(4))
	f.Add([]byte(""), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		// 32 KB keeps the worst bounded expansion (~1000x for flate) around
		// 32 MB so the fuzzer's throughput stays useful.
		if len(data) > 32<<10 {
			return
		}
		filter := fuzzFilterNames[int(sel)%len(fuzzFilterNames)]
		// The 2s tripwires below turn complexity regressions into loud
		// failures: Go's fuzzer has no hang detector, so a quadratic decoder
		// would otherwise present as a silent throughput stall. Bounded
		// worst cases today (32 KB input, ~32 MB flate expansion) sit far
		// under the limit.
		watchStart := time.Now()
		_, _ = Decode(filter, data)
		if d := time.Since(watchStart); d > 2*time.Second {
			t.Fatalf("slow decode %s: %v for %d bytes", filter, d, len(data))
		}

		// Round trip: encoding is total, and decode(encode(x)) == x.
		enc, err := Encode(filter, data)
		if err != nil {
			t.Fatalf("encode %s: %v", filter, err)
		}
		dec, err := Decode(filter, enc)
		if err != nil {
			t.Fatalf("decode %s after encode: %v", filter, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%s round trip mismatch: %d bytes in, %d bytes out", filter, len(data), len(dec))
		}

		// Chain decode through a second filter layer on the raw input.
		second := fuzzFilterNames[(int(sel)+1)%len(fuzzFilterNames)]
		s := &Stream{
			Dict: Dict{"Filter": Array{filter, second}},
			Raw:  data,
		}
		watchStart = time.Now()
		_, _, _ = DecodeChain(s)
		if d := time.Since(watchStart); d > 2*time.Second {
			t.Fatalf("slow chain %s+%s: %v for %d bytes", filter, second, d, len(data))
		}
	})
}
