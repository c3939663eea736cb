package instrument

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pdfshield/internal/js"
)

// runDecryptor executes decls + a call to the decryptor with ack "ok" and
// returns the decrypted string.
func runDecryptor(t *testing.T, decls []string, decryptFn string) string {
	t.Helper()
	src := strings.Join(decls, "\n") + "\nout = " + decryptFn + "('ok');"
	it := js.New()
	if _, err := it.Run(src); err != nil {
		t.Fatalf("decryptor run: %v\nsource:\n%s", err, src)
	}
	v, ok := it.Global.Lookup("out")
	if !ok || !v.IsString() {
		t.Fatalf("decryptor produced %v", v)
	}
	return v.Str()
}

func TestXORHexCipherRoundTripProperty(t *testing.T) {
	b := &monitorBuilder{rng: rand.New(rand.NewSource(1)), detectorID: "d"}
	prop := func(raw []byte) bool {
		// ASCII-only sources for the XOR cipher.
		src := make([]byte, 0, len(raw))
		for _, c := range raw {
			src = append(src, c&0x7f)
		}
		names := map[string]bool{}
		payloadVar := b.freshName(names)
		keyVar := b.freshName(names)
		fn := b.freshName(names)
		payload, jsKey := b.encryptXORHex(string(src))
		decls := []string{
			"var " + payloadVar + "=" + jsStringLiteral(payload) + ";",
			"var " + keyVar + "=" + jsKey + ";",
			xorHexDecryptor(fn, payloadVar, keyVar, names, b),
		}
		return runDecryptor(t, decls, fn) == string(src)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestShiftEscapeCipherRoundTripProperty: for arbitrary bytes, and for
// arbitrary code points (most of them outside the BMP), the decryptor
// returns exactly the engine's reading of the source.
func TestShiftEscapeCipherRoundTripProperty(t *testing.T) {
	b := &monitorBuilder{rng: rand.New(rand.NewSource(2)), detectorID: "d"}
	prop := func(raw []byte, runes string) bool {
		for _, src := range []string{string(raw), runes} {
			if decryptShiftEscape(t, b, src) != js.SourceText(src) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// decryptShiftEscape encrypts src with the shift-escape cipher and runs
// its decryptor in the engine.
func decryptShiftEscape(t *testing.T, b *monitorBuilder, src string) string {
	t.Helper()
	names := map[string]bool{}
	payloadVar := b.freshName(names)
	fn := b.freshName(names)
	payload, shift, astral := b.encryptShiftEscape(src)
	decls := []string{
		"var " + payloadVar + "=" + jsStringLiteral(payload) + ";",
		shiftEscapeDecryptor(fn, payloadVar, shift, astral, names, b),
	}
	return runDecryptor(t, decls, fn)
}

// FuzzMonitorRoundTrip: for any source, the decryptor returns exactly the
// engine's reading of it (js.SourceText), so the monitored script lexes as
// the plain one does. ASCII sources also take the XOR cipher.
func FuzzMonitorRoundTrip(f *testing.F) {
	for _, src := range monitorProbes {
		f.Add(src)
	}
	f.Add(`var s = '\uD83D'; out = s.charCodeAt(0);`)
	f.Add("")
	b := &monitorBuilder{rng: rand.New(rand.NewSource(5)), detectorID: "d"}
	f.Fuzz(func(t *testing.T, src string) {
		want := js.SourceText(src)
		if got := decryptShiftEscape(t, b, src); got != want {
			t.Fatalf("shift-escape decrypts %q to %q, want %q", src, got, want)
		}
		if !isASCIIString(src) {
			return
		}
		names := map[string]bool{}
		payloadVar, keyVar, fn := b.freshName(names), b.freshName(names), b.freshName(names)
		payload, jsKey := b.encryptXORHex(src)
		decls := []string{
			"var " + payloadVar + "=" + jsStringLiteral(payload) + ";",
			"var " + keyVar + "=" + jsKey + ";",
			xorHexDecryptor(fn, payloadVar, keyVar, names, b),
		}
		if got := runDecryptor(t, decls, fn); got != want {
			t.Fatalf("xor-hex decrypts %q to %q, want %q", src, got, want)
		}
	})
}

// monitorProbes are scripts whose result the shift-escape cipher once
// changed: a character outside the BMP, and identifiers that differ only
// in a byte that is not UTF-8.
var monitorProbes = []string{
	"var s = '\U0001F600'; out = s.charCodeAt(0);",
	"var a\xba = 1; var a\xbb = 2; out = a\xba;",
}

// TestMonitoredScriptComputesAsPlain: a monitored script computes what
// the plain one computes, at every builder seed.
func TestMonitoredScriptComputesAsPlain(t *testing.T) {
	for _, src := range monitorProbes {
		plain := js.New()
		if _, err := plain.Run(src); err != nil {
			t.Fatalf("plain %q: %v", src, err)
		}
		want, _ := plain.Global.Lookup("out")
		for seed := int64(1); seed <= 4; seed++ {
			b := &monitorBuilder{rng: rand.New(rand.NewSource(seed)), detectorID: "d"}
			it := js.New()
			installSOAP(it)
			if _, err := it.Run(b.build(Key{InstrKey: "k"}, 1, src)); err != nil {
				t.Fatalf("seed %d, monitored %q: %v", seed, src, err)
			}
			if got, _ := it.Global.Lookup("out"); got.Num() != want.Num() {
				t.Errorf("seed %d, %q: out = %v monitored, %v plain", seed, src, got.Num(), want.Num())
			}
		}
	}
}

func TestDecryptorRejectsWrongAck(t *testing.T) {
	b := &monitorBuilder{rng: rand.New(rand.NewSource(3)), detectorID: "d"}
	names := map[string]bool{}
	payloadVar := b.freshName(names)
	fn := b.freshName(names)
	payload, shift, astral := b.encryptShiftEscape("var secret = 1;")
	src := "var " + payloadVar + "=" + jsStringLiteral(payload) + ";\n" +
		shiftEscapeDecryptor(fn, payloadVar, shift, astral, names, b) +
		"\nout = " + fn + "('no');" // wrong ack
	it := js.New()
	if _, err := it.Run(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	v, _ := it.Global.Lookup("out")
	if v.Str() == "var secret = 1;" {
		t.Error("wrong ack still decrypted the payload")
	}
}

// TestJSStringLiteralRoundTripProperty: for arbitrary bytes, the engine
// decodes the literal to its reading of them.
func TestJSStringLiteralRoundTripProperty(t *testing.T) {
	prop := func(raw []byte) bool {
		s := string(raw)
		it := js.New()
		v, err := it.Run("x = " + jsStringLiteral(s) + ";")
		if err != nil {
			return false
		}
		return v.Str() == js.SourceText(s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMonitorLayoutRandomized(t *testing.T) {
	// Two documents instrumented by the same instrumenter must produce
	// structurally different monitoring code (identifiers, order, decoys).
	reg := NewRegistry("layoutdet00001")
	ins := New(reg, Options{Seed: 9})
	b := &monitorBuilder{rng: ins.rng, endpoint: ins.endpoint, detectorID: "layoutdet00001"}
	key := Key{DetectorID: "layoutdet00001", InstrKey: "k1"}
	a := b.build(key, 1, "var x=1;")
	c := b.build(key, 1, "var x=1;")
	if a == c {
		t.Error("monitoring code not randomized across builds")
	}
}

func TestPickSafeShiftAvoidsSurrogates(t *testing.T) {
	b := &monitorBuilder{rng: rand.New(rand.NewSource(4)), detectorID: "d"}
	units := []int{0x41, 0x7fff, 0xd7ff, 0x20}
	for trial := 0; trial < 50; trial++ {
		shift := b.pickSafeShift(units)
		for _, u := range units {
			v := (u + shift) % 0x10000
			if v >= 0xd800 && v < 0xe000 {
				t.Fatalf("shift %d lands unit %#x in surrogate range", shift, u)
			}
		}
	}
}

// TestDecryptorAccountingPinned pins the step and heap totals of both
// decryptors on a 4 KB script. They write one array element per source
// character on every instrumented open, so a change to how the engine
// stores arrays must leave both totals exactly as they are.
func TestDecryptorAccountingPinned(t *testing.T) {
	src := strings.Repeat(`var total = 0; for (var i = 0; i < 10; i++) { total += i; } app.alert("sum " + total);`+"\n", 45)
	run := func(decls []string, fn string) (int64, int64) {
		it := js.New()
		if _, err := it.Run(strings.Join(decls, "\n") + "\nout = " + fn + "('ok');"); err != nil {
			t.Fatal(err)
		}
		if v, _ := it.Global.Lookup("out"); v.Str() != src {
			t.Fatal("decryptor did not return the source")
		}
		return it.Steps(), it.HeapBytes
	}
	b := &monitorBuilder{rng: rand.New(rand.NewSource(9)), detectorID: "d"}
	names := map[string]bool{}
	payloadVar, keyVar, fn := b.freshName(names), b.freshName(names), b.freshName(names)
	payload, jsKey := b.encryptXORHex(src)
	xorSteps, xorHeap := run([]string{
		"var " + payloadVar + "=" + jsStringLiteral(payload) + ";",
		"var " + keyVar + "=" + jsKey + ";",
		xorHexDecryptor(fn, payloadVar, keyVar, names, b),
	}, fn)
	names = map[string]bool{}
	payloadVar, fn = b.freshName(names), b.freshName(names)
	payload, shift, astral := b.encryptShiftEscape(src)
	shiftSteps, shiftHeap := run([]string{
		"var " + payloadVar + "=" + jsStringLiteral(payload) + ";",
		shiftEscapeDecryptor(fn, payloadVar, shift, astral, names, b),
	}, fn)
	const (
		wantXORSteps, wantXORHeap     = 148809, 94072
		wantShiftSteps, wantShiftHeap = 806525, 86130
	)
	if xorSteps != wantXORSteps || xorHeap != wantXORHeap {
		t.Errorf("xor-hex: steps %d heap %d, pinned steps %d heap %d", xorSteps, xorHeap, wantXORSteps, wantXORHeap)
	}
	if shiftSteps != wantShiftSteps || shiftHeap != wantShiftHeap {
		t.Errorf("shift-escape: steps %d heap %d, pinned steps %d heap %d", shiftSteps, shiftHeap, wantShiftSteps, wantShiftHeap)
	}
}
