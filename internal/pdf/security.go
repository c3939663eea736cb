package pdf

import (
	"crypto/md5"
	"crypto/rc4"
	"errors"
	"fmt"
)

// The standard security handler (revision 2, 40-bit RC4) is implemented so
// the front-end can "remove the owner's password" from view-only documents,
// the step the paper delegates to PDF password recovery tools. A document
// encrypted with only an owner password uses the empty user password, so the
// file key is recoverable from the file itself — which is exactly what makes
// removal trivial.

// ErrEncrypted is returned when an encrypted document cannot be processed.
var ErrEncrypted = errors.New("pdf: unsupported encryption")

// passwordPad is the standard 32-byte padding string from the PDF spec.
var passwordPad = []byte{
	0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
	0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
	0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
	0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
}

func padPassword(pw []byte) []byte {
	out := make([]byte, 32)
	n := copy(out, pw)
	copy(out[n:], passwordPad)
	return out
}

// ownerHash computes the /O entry from the owner password (empty user
// password assumed for view-only docs).
func ownerHash(ownerPw []byte) []byte {
	sum := md5.Sum(padPassword(ownerPw))
	key := sum[:5]
	c, _ := rc4.NewCipher(key)
	out := make([]byte, 32)
	c.XORKeyStream(out, padPassword(nil)) // empty user password padded
	return out
}

// fileKey derives the 40-bit file encryption key (revision 2) from the user
// password, /O entry, /P flags and the first document ID string.
func fileKey(userPw, oEntry []byte, perms int32, id []byte) []byte {
	h := md5.New()
	h.Write(padPassword(userPw))
	h.Write(oEntry)
	h.Write([]byte{byte(perms), byte(perms >> 8), byte(perms >> 16), byte(perms >> 24)})
	h.Write(id)
	sum := h.Sum(nil)
	return sum[:5]
}

// userHash computes the /U entry for revision 2: RC4 of the padding string
// with the file key.
func userHash(key []byte) []byte {
	c, _ := rc4.NewCipher(key)
	out := make([]byte, 32)
	c.XORKeyStream(out, passwordPad)
	return out
}

// objectKey derives the per-object RC4 key.
func objectKey(fileKey []byte, num, gen int) []byte {
	h := md5.New()
	h.Write(fileKey)
	h.Write([]byte{byte(num), byte(num >> 8), byte(num >> 16)})
	h.Write([]byte{byte(gen), byte(gen >> 8)})
	sum := h.Sum(nil)
	n := len(fileKey) + 5
	if n > 16 {
		n = 16
	}
	return sum[:n]
}

func rc4Apply(key, data []byte) []byte {
	c, _ := rc4.NewCipher(key)
	out := make([]byte, len(data))
	c.XORKeyStream(out, data)
	return out
}

const ownerOnlyPerms int32 = -44 // print+view allowed, modify denied

// EncryptOwner encrypts the document in place with an owner-only password
// (empty user password), mimicking "readable but non-modifiable" mode. The
// document gains /Encrypt in the trailer and an /ID.
func EncryptOwner(d *Document, ownerPw string) error {
	if d.Trailer == nil {
		d.Trailer = Dict{}
	}
	if _, exists := d.Trailer["Encrypt"]; exists {
		return fmt.Errorf("%w: already encrypted", ErrEncrypted)
	}
	id := md5.Sum([]byte(ownerPw + "/pdfshield-id"))
	o := ownerHash([]byte(ownerPw))
	key := fileKey(nil, o, ownerOnlyPerms, id[:])
	u := userHash(key)

	transformStringsAndStreams(d, key)

	encRef := d.Add(Dict{
		"Filter": Name("Standard"),
		"V":      Integer(1),
		"R":      Integer(2),
		"O":      String{Value: o, Hex: true},
		"U":      String{Value: u, Hex: true},
		"P":      Integer(ownerOnlyPerms),
	})
	d.Trailer["Encrypt"] = encRef
	d.Trailer["ID"] = Array{
		String{Value: id[:], Hex: true},
		String{Value: id[:], Hex: true},
	}
	return nil
}

// IsEncrypted reports whether the trailer declares encryption.
func (d *Document) IsEncrypted() bool {
	return d.Trailer != nil && d.Trailer.Get("Encrypt") != nil
}

// RemoveOwnerPassword strips owner-only encryption in place: it derives the
// file key from the empty user password, checks it against /U, decrypts
// every string and stream, and removes /Encrypt. Only a dictionary whose
// every entry the revision 2 handler reads is accepted (see
// checkRevision2); anything else, and a /U that does not validate against
// the empty password (a user password is required), fails with
// ErrEncrypted, so a successful removal is a verified decryption.
func RemoveOwnerPassword(d *Document) error {
	if !d.IsEncrypted() {
		return nil
	}
	enc, ok := d.ResolveDict(d.Trailer.Get("Encrypt"))
	if !ok {
		return fmt.Errorf("%w: /Encrypt unresolvable", ErrEncrypted)
	}
	if err := checkRevision2(enc); err != nil {
		return fmt.Errorf("%w: %v", ErrEncrypted, err)
	}
	perms, _ := enc.Get("P").(Integer)
	var id []byte
	if arr, ok := d.Resolve(d.Trailer.Get("ID")).(Array); ok && len(arr) > 0 {
		if s, ok := arr[0].(String); ok {
			id = s.Value
		}
	}
	key := fileKey(nil, enc.Get("O").(String).Value, int32(perms), id)
	if string(userHash(key)) != string(enc.Get("U").(String).Value) {
		return fmt.Errorf("%w: user password required", ErrEncrypted)
	}

	encRefNum := -1
	if ref, ok := d.Trailer.Get("Encrypt").(Ref); ok {
		encRefNum = ref.Num
	}
	transformStringsAndStreamsExcept(d, key, encRefNum)

	delete(d.Trailer, "Encrypt")
	if encRefNum >= 0 {
		d.Delete(encRefNum)
	}
	return nil
}

// checkRevision2 accepts exactly the standard handler's revision 2 (40-bit
// RC4 over every string and stream): /Filter /Standard, /V absent or 1,
// /Length absent or 40, and /O and /U of 32 bytes each. Crypt filters
// (/CF, /StmF, /StrF, /EFF) belong to /V 4 and later; an /Identity filter
// there leaves bytes in plaintext that RC4 would scramble, so a dictionary
// naming one is refused rather than decrypted the way no reader would.
func checkRevision2(enc Dict) error {
	if f, _ := enc.Get("Filter").(Name); f != "Standard" {
		return fmt.Errorf("handler %q", f)
	}
	if r, _ := enc.Get("R").(Integer); r != 2 {
		return fmt.Errorf("revision %d", r)
	}
	if v, ok := enc["V"]; ok {
		if n, _ := v.(Integer); n != 1 {
			return errors.New("/V is not 1")
		}
	}
	if l, ok := enc["Length"]; ok {
		if n, _ := l.(Integer); n != 40 {
			return errors.New("/Length is not 40")
		}
	}
	for _, k := range []Name{"O", "U"} {
		if s, ok := enc.Get(k).(String); !ok || len(s.Value) != 32 {
			return fmt.Errorf("/%s missing or not 32 bytes", k)
		}
	}
	for _, k := range []Name{"CF", "StmF", "StrF", "EFF"} {
		if _, ok := enc[k]; ok {
			return fmt.Errorf("crypt filter entry /%s", k)
		}
	}
	return nil
}

func transformStringsAndStreams(d *Document, key []byte) {
	transformStringsAndStreamsExcept(d, key, -1)
}

// transformStringsAndStreamsExcept RC4s every string and stream body with
// its per-object key (RC4 is symmetric, so this both encrypts and decrypts).
func transformStringsAndStreamsExcept(d *Document, key []byte, skipNum int) {
	for _, num := range d.Numbers() {
		if num == skipNum {
			continue
		}
		obj := d.objects[num]
		ok := objectKey(key, obj.Num, obj.Gen)
		obj.Object = cryptObject(obj.Object, ok)
		d.objects[num] = obj
	}
}

func cryptObject(obj Object, key []byte) Object {
	switch v := obj.(type) {
	case String:
		return String{Value: rc4Apply(key, v.Value), Hex: v.Hex}
	case Array:
		out := make(Array, len(v))
		for i, el := range v {
			out[i] = cryptObject(el, key)
		}
		return out
	case Dict:
		out := make(Dict, len(v))
		for k, el := range v {
			out[k] = cryptObject(el, key)
		}
		return out
	case *Stream:
		return &Stream{
			Dict: cryptObject(v.Dict, key).(Dict),
			Raw:  rc4Apply(key, v.Raw),
		}
	default:
		return obj
	}
}
