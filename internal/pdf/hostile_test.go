package pdf

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// TestScavengeQuadraticBounded is the regression test for the parser's
// work-budget fix: overlapping unterminated objects used to make every
// scavenged `obj` marker re-scan to end of input, O(n²) over
// attacker-controlled size (~18s at 360 KB before the fix, milliseconds
// after). The 5s ceiling is a ~250x margin over the fixed cost, so the test
// only fires if the quadratic behaviour comes back.
func TestScavengeQuadraticBounded(t *testing.T) {
	hostile := bytes.Repeat([]byte("1 0 obj ("), 40000) // 360 KB

	start := time.Now()
	_, _ = Parse(hostile, ParseOptions{})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("lenient parse of quadratic-scavenge input took %v", d)
	}

	// Same exposure through a lying xref table full of offsets into the
	// overlapping-string region.
	var doc strings.Builder
	doc.WriteString("%PDF-1.4\n")
	doc.Write(bytes.Repeat([]byte("2 0 obj ("), 20000))
	xrefAt := doc.Len() + 1
	doc.WriteString("\nxref\n0 2000\n0000000000 65535 f \n")
	for i := 1; i < 2000; i++ {
		fmt.Fprintf(&doc, "%010d 00000 n \n", 9+(i%64))
	}
	doc.WriteString("trailer\n<< /Size 2000 /Root 1 0 R >>\nstartxref\n")
	fmt.Fprintf(&doc, "%d\n%%%%EOF\n", xrefAt)

	start = time.Now()
	_, _ = Parse([]byte(doc.String()), ParseOptions{})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("parse of hostile xref offsets took %v", d)
	}
}

// TestRunLengthDecodeCapped pins the zip-bomb fix: RunLength repeat runs
// expand 2 input bytes into up to 128 output bytes, and the decoder used to
// have no output cap at all.
func TestRunLengthDecodeCapped(t *testing.T) {
	pairs := maxDecodedSize/128 + 1 // decodes to just over the cap
	bomb := bytes.Repeat([]byte{0x81, 0x00}, pairs)
	_, err := Decode(FilterRunLength, bomb)
	if !errors.Is(err, ErrFilter) {
		t.Fatalf("oversized runlength decode: err = %v, want ErrFilter", err)
	}
}

// TestDecodeChainLengthCapped pins the declared-chain bound: thousands of
// stacked expanding filters would otherwise buy geometric amplification with
// a few bytes of dictionary.
func TestDecodeChainLengthCapped(t *testing.T) {
	over := make(Array, maxFilterChain+1)
	for i := range over {
		over[i] = FilterRunLength
	}
	s := &Stream{Dict: Dict{"Filter": over}, Raw: []byte{0x81, 0x00}}
	_, _, err := DecodeChain(s)
	if !errors.Is(err, ErrFilter) {
		t.Fatalf("overlong chain: err = %v, want ErrFilter", err)
	}

	// A chain exactly at the cap is still honoured. RunLength is roughly
	// size-preserving in the encode direction (hex/85 would double or grow
	// the payload per level, exponential over 32 levels), so stack
	// maxFilterChain RunLength layers and decode back to the plain byte.
	at := make(Array, maxFilterChain)
	for i := range at {
		at[i] = FilterRunLength
	}
	data := []byte("A")
	for i := 0; i < maxFilterChain; i++ {
		enc, err := Encode(FilterRunLength, data)
		if err != nil {
			t.Fatalf("encode level %d: %v", i, err)
		}
		data = enc
	}
	s = &Stream{Dict: Dict{"Filter": at}, Raw: data}
	out, levels, err := DecodeChain(s)
	if err != nil || levels != maxFilterChain || string(out) != "A" {
		t.Fatalf("chain at cap: out=%q levels=%d err=%v", out, levels, err)
	}
}

// TestNestedArraysDepthBounded: array elements were parsed without the
// maxParseDepth check that dictionary values get, so `[[[[…` nested
// 300 000 deep overflowed the Go stack — a fatal error, not a panic —
// under a 64 MB limit. Both nestings now stop at the bound, and shallow
// nesting still parses.
func TestNestedArraysDepthBounded(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	for _, open := range []string{"[", "<</A "} {
		close := "]"
		if open != "[" {
			close = ">>"
		}
		deep := "%PDF-1.4\n1 0 obj\n" + strings.Repeat(open, 300000) + strings.Repeat(close, 300000) +
			"\nendobj\ntrailer\n<< /Root 1 0 R >>\n%%EOF\n"
		_, _ = Parse([]byte(deep), ParseOptions{})
	}
	shallow := "%PDF-1.4\n1 0 obj\n" + strings.Repeat("[", maxParseDepth) + strings.Repeat("]", maxParseDepth) +
		"\nendobj\ntrailer\n<< /Root 1 0 R >>\n%%EOF\n"
	doc, err := Parse([]byte(shallow), ParseOptions{})
	if err != nil {
		t.Fatalf("parse of %d nested arrays: %v", maxParseDepth, err)
	}
	if obj, ok := doc.Get(1); !ok || obj.Object.Kind() != KindArray {
		t.Fatalf("object 1 = %v, want the nested array", obj.Object)
	}
}
