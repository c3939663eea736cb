package instrument

import (
	"fmt"
	"math/rand"
	"strings"

	"pdfshield/internal/js"
)

// Cipher identifies a script-encryption scheme. Per §IV ("Runtime Patching
// Attack"), the original script is encrypted and the decryptor embedded in
// the prologue, so malicious Javascript cannot execute without the context
// monitoring code taking control first. A scheme is chosen at random per
// script.
type Cipher int

// Supported ciphers.
const (
	// CipherXORHex XORs source bytes with a random key and stores the
	// result as a hex string. Only valid for ASCII sources.
	CipherXORHex Cipher = iota + 1
	// CipherShiftEscape adds a random shift to every UTF-16 code unit of
	// the engine's reading of the source (js.SourceText) and stores the
	// result as %uXXXX escape text (works for any source).
	CipherShiftEscape
)

// monitorBuilder generates context monitoring code with randomized
// structure: randomized identifiers, shuffled declaration order, and decoy
// copies of fake monitoring code, defeating signature-based key search
// (§IV-B "Mimicry Attack").
type monitorBuilder struct {
	rng        *rand.Rand
	endpoint   string
	detectorID string
}

const nameAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// freshName returns a random identifier unlike any previously issued name.
func (b *monitorBuilder) freshName(used map[string]bool) string {
	for {
		var sb strings.Builder
		sb.WriteByte('_')
		n := 5 + b.rng.Intn(5)
		for i := 0; i < n; i++ {
			sb.WriteByte(nameAlphabet[b.rng.Intn(len(nameAlphabet))])
		}
		name := sb.String()
		if !used[name] {
			used[name] = true
			return name
		}
	}
}

func isASCIIString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// encryptXORHex produces the payload literal and decryptor body for
// CipherXORHex.
func (b *monitorBuilder) encryptXORHex(src string) (payload string, jsKey string) {
	keyLen := 4 + b.rng.Intn(5)
	key := make([]byte, keyLen)
	for i := range key {
		key[i] = byte(1 + b.rng.Intn(255))
	}
	const hexdig = "0123456789abcdef"
	var sb strings.Builder
	sb.Grow(len(src) * 2)
	for i := 0; i < len(src); i++ {
		c := src[i] ^ key[i%keyLen]
		sb.WriteByte(hexdig[c>>4])
		sb.WriteByte(hexdig[c&0xf])
	}
	keyParts := make([]string, keyLen)
	for i, k := range key {
		keyParts[i] = fmt.Sprintf("%d", k)
	}
	return sb.String(), "[" + strings.Join(keyParts, ",") + "]"
}

// ackSalt is the decryption contribution of the detector's acknowledgement
// ("ok" → 'o'+'k' = 218). Fusing the enter-ack into the cipher is the §IV
// control-retaining defense: monitoring code cannot be patched out while
// keeping the decryptor alive, because without a successful (non-forged)
// enter notification there is no ack material and decryption fails.
const ackSalt = 'o' + 'k'

// xorHexDecryptor emits a JS function decoding encryptXORHex output. The
// function takes the enter-ack status string; its character codes feed the
// key stream. Characters are collected into an array and joined once so
// decryption stays linear in allocations.
func xorHexDecryptor(fnName, payloadVar, keyVar string, names map[string]bool, b *monitorBuilder) string {
	i := b.freshName(names)
	acc := b.freshName(names)
	st := b.freshName(names)
	salt := b.freshName(names)
	return fmt.Sprintf(
		"function %s(%s){var %s=%s.charCodeAt(0)+%s.charCodeAt(1);var %s=[];"+
			"for(var %s=0;%s<%s.length;%s+=2){%s[%s/2]=String.fromCharCode((parseInt(%s.substr(%s,2),16)^%s[(%s/2)%%%s.length])-%s+%d);}return %s.join('');}",
		fnName, st, salt, st, st, acc,
		i, i, payloadVar, i, acc, i, payloadVar, i, keyVar, i, keyVar, salt, ackSalt, acc)
}

// encryptShiftEscape produces the payload literal and shift for
// CipherShiftEscape. It encrypts the engine's reading of src
// (js.SourceText), so the decrypted script lexes exactly as the plain one
// does, bytes that are not UTF-8 included. The shift is chosen so no
// encrypted unit lands in the UTF-16 surrogate range, which unescape()
// could not represent. astral reports a character outside the BMP, which
// the decryptor must rebuild from its surrogate pair.
func (b *monitorBuilder) encryptShiftEscape(src string) (payload string, shift int, astral bool) {
	var units []int
	for _, r := range js.SourceText(src) {
		if r > 0xffff {
			astral = true
			r -= 0x10000
			units = append(units, int(0xd800+(r>>10)), int(0xdc00+(r&0x3ff)))
			continue
		}
		units = append(units, int(r))
	}
	shift = b.pickSafeShift(units)
	const hexdig = "0123456789abcdef"
	var sb strings.Builder
	sb.Grow(len(units) * 6)
	for _, u := range units {
		v := (u + shift) % 0x10000
		sb.WriteString("%u")
		sb.WriteByte(hexdig[(v>>12)&0xf])
		sb.WriteByte(hexdig[(v>>8)&0xf])
		sb.WriteByte(hexdig[(v>>4)&0xf])
		sb.WriteByte(hexdig[v&0xf])
	}
	return sb.String(), shift, astral
}

func (b *monitorBuilder) pickSafeShift(units []int) int {
	for tries := 0; tries < 256; tries++ {
		shift := 1 + b.rng.Intn(0xfff0)
		safe := true
		for _, u := range units {
			v := (u + shift) % 0x10000
			if v >= 0xd800 && v < 0xe000 {
				safe = false
				break
			}
		}
		if safe {
			return shift
		}
	}
	// No single shift avoids the surrogate band (needs sources spanning
	// most of the code-unit space); shift 0x2800 keeps ASCII and common
	// escape payload bytes clear of it.
	return 0x2800
}

// shiftEscapeDecryptor emits a JS function decoding encryptShiftEscape
// output one UTF-16 unit at a time. The engine holds strings as runes and
// cannot hold a lone surrogate, so when the source has a character
// outside the BMP (astral), a high surrogate is decoded together with the
// low one that follows it in one String.fromCharCode call. Only such
// sources pay for that test: it is a &&/|| short-circuit, not a
// conditional, because forced execution flips every conditional and a
// per-unit one would spend its whole path budget inside the decryptor.
func shiftEscapeDecryptor(fnName, payloadVar string, shift int, astral bool, names map[string]bool, b *monitorBuilder) string {
	i := b.freshName(names)
	raw := b.freshName(names)
	acc := b.freshName(names)
	st := b.freshName(names)
	salt := b.freshName(names)
	inv := (0x10000 - shift - ackSalt + 0x20000) % 0x10000
	unit := fmt.Sprintf("(%s.charCodeAt(%s)+%d+%s)%%65536", raw, i, inv, salt)
	body := fmt.Sprintf("%s[%s]=String.fromCharCode(%s);", acc, i, unit)
	if astral {
		// c>>10==54 tests for a high surrogate (0xD800-0xDBFF); the pair
		// string it yields is never empty, so || keeps it.
		c := b.freshName(names)
		body = fmt.Sprintf("var %s=%s;%s[%s]=%s>>10==54&&String.fromCharCode(%s,(%s.charCodeAt(++%s)+%d+%s)%%65536)||String.fromCharCode(%s);",
			c, unit, acc, i, c, c, raw, i, inv, salt, c)
	}
	return fmt.Sprintf(
		"function %s(%s){var %s=%s.charCodeAt(0)+%s.charCodeAt(1);var %s=unescape(%s);var %s=[];"+
			"for(var %s=0;%s<%s.length;%s++){%s}return %s.join('');}",
		fnName, st, salt, st, st, raw, payloadVar, acc,
		i, i, raw, i, body, acc)
}

// jsStringLiteral renders s as a single-quoted JS string literal. This is
// the paper's "only operation we perform is to scan the code and add '\\'
// for quotes" step, extended with control-character escaping so the literal
// survives any source. The engine decodes the literal back to its reading
// of s (js.SourceText), which is s itself whenever s is UTF-8: bytes from
// 0x80 up are copied as they are, and the escapes added around them are
// ASCII, so no byte sequence changes its reading.
func jsStringLiteral(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' || c == '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case c == '\n':
			sb.WriteString(`\n`)
		case c == '\r':
			sb.WriteString(`\r`)
		case c == '\t':
			sb.WriteString(`\t`)
		case c < 0x20:
			fmt.Fprintf(&sb, `\u%04x`, c)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('\'')
	return sb.String()
}

// soapCall renders the prologue/epilogue SOAP request expression (no
// trailing semicolon so the caller can bind the result).
func (b *monitorBuilder) soapCall(keyVar, event string, seq int) string {
	return fmt.Sprintf(
		"SOAP.request({cURL:%s,oRequest:{Event:%q,Key:%s,Seq:%d}})",
		jsStringLiteral(b.endpoint), event, keyVar, seq)
}

// decoy generates a fake context-monitoring fragment: a key variable with
// exactly the same shape as the real protection key, plus a decryptor-
// looking function that is never meaningfully invoked. An attacker scanning
// memory or source for "the" key finds several indistinguishable
// candidates; guessing wrong trips the zero-tolerance fake-message alarm.
func (b *monitorBuilder) decoy(names map[string]bool) string {
	kv := b.freshName(names)
	fn := b.freshName(names)
	fakeIK := make([]byte, keyBytes)
	for i := range fakeIK {
		fakeIK[i] = byte(b.rng.Intn(256))
	}
	fake := fmt.Sprintf("%s:%x", b.detectorID, fakeIK)
	i := b.freshName(names)
	acc := b.freshName(names)
	return fmt.Sprintf(
		"var %s=%s;function %s(%s){var %s='';return %s+%s;}if(0){%s(%s);}",
		kv, jsStringLiteral(fake), fn, i, acc, acc, i, fn, kv)
}

// build wraps source in context monitoring code. The generated layout is
//
//	<shuffled: key var | decryptor | payload var | 0-2 decoys>
//	SOAP enter
//	try { eval(decrypt()); } finally { SOAP exit }
//
// Exact identifier names, cipher choice, key material and decoy count all
// come from the builder's RNG.
func (b *monitorBuilder) build(key Key, seq int, source string) string {
	names := map[string]bool{}
	keyVar := b.freshName(names)
	payloadVar := b.freshName(names)
	decryptFn := b.freshName(names)

	cipher := CipherShiftEscape
	if isASCIIString(source) && b.rng.Intn(2) == 0 {
		cipher = CipherXORHex
	}

	var decls []string
	decls = append(decls, fmt.Sprintf("var %s=%s;", keyVar, jsStringLiteral(key.String())))

	switch cipher {
	case CipherXORHex:
		payload, jsKey := b.encryptXORHex(source)
		xkVar := b.freshName(names)
		decls = append(decls,
			fmt.Sprintf("var %s=%s;", payloadVar, jsStringLiteral(payload)),
			fmt.Sprintf("var %s=%s;", xkVar, jsKey),
			xorHexDecryptor(decryptFn, payloadVar, xkVar, names, b),
		)
	default:
		payload, shift, astral := b.encryptShiftEscape(source)
		decls = append(decls,
			fmt.Sprintf("var %s=%s;", payloadVar, jsStringLiteral(payload)),
			shiftEscapeDecryptor(decryptFn, payloadVar, shift, astral, names, b),
		)
	}

	for n := 1 + b.rng.Intn(2); n > 0; n-- {
		decls = append(decls, b.decoy(names))
	}
	b.rng.Shuffle(len(decls), func(i, j int) { decls[i], decls[j] = decls[j], decls[i] })

	ackVar := b.freshName(names)
	var sb strings.Builder
	for _, d := range decls {
		sb.WriteString(d)
		sb.WriteByte('\n')
	}
	// The enter ack feeds the decryptor: no successful enter, no script.
	sb.WriteString(fmt.Sprintf("var %s=%s;\n", ackVar, b.soapCall(keyVar, "enter", seq)))
	sb.WriteString(fmt.Sprintf("try{eval(%s(%s.status));}finally{%s;}", decryptFn, ackVar, b.soapCall(keyVar, "exit", seq)))
	return sb.String()
}
