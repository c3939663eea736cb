package pdf

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestEncryptOwnerAndRemove(t *testing.T) {
	d := buildSimpleDoc(t, "app.alert('secret');")
	if err := EncryptOwner(d, "owner-pass"); err != nil {
		t.Fatal(err)
	}
	if !d.IsEncrypted() {
		t.Fatal("document should report encrypted")
	}

	// Chains must be unreadable while encrypted (the script bytes are RC4'd
	// so the Flate layer fails or decodes to junk).
	cs, err := ReconstructChains(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Chains) == 1 && cs.Chains[0].Source == "app.alert('secret');" {
		t.Error("script should not be readable before password removal")
	}

	if err := RemoveOwnerPassword(d); err != nil {
		t.Fatal(err)
	}
	if d.IsEncrypted() {
		t.Error("encryption survived removal")
	}
	cs, err = ReconstructChains(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Chains) != 1 {
		t.Fatalf("chains = %d", len(cs.Chains))
	}
	if cs.Chains[0].Source != "app.alert('secret');" {
		t.Errorf("recovered script = %q", cs.Chains[0].Source)
	}
}

func TestEncryptOwnerRoundTripThroughBytes(t *testing.T) {
	d := buildSimpleDoc(t, "var v = 42;")
	if err := EncryptOwner(d, "pw"); err != nil {
		t.Fatal(err)
	}
	data, err := Write(d, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.IsEncrypted() {
		t.Fatal("parsed document should be encrypted")
	}
	if err := RemoveOwnerPassword(parsed); err != nil {
		t.Fatal(err)
	}
	cs, err := ReconstructChains(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Chains) != 1 || cs.Chains[0].Source != "var v = 42;" {
		t.Errorf("chains after byte round trip = %+v", cs.Chains)
	}
}

func TestRemoveOwnerPasswordOnPlainDocIsNoop(t *testing.T) {
	d := buildSimpleDoc(t, "x")
	if err := RemoveOwnerPassword(d); err != nil {
		t.Fatal(err)
	}
	if d.IsEncrypted() {
		t.Error("plain document became encrypted?")
	}
}

func TestDoubleEncryptRejected(t *testing.T) {
	d := buildSimpleDoc(t, "x")
	if err := EncryptOwner(d, "a"); err != nil {
		t.Fatal(err)
	}
	if err := EncryptOwner(d, "b"); err == nil {
		t.Error("double encryption should fail")
	}
}

func TestRemoveRejectsUserPassword(t *testing.T) {
	d := buildSimpleDoc(t, "x")
	if err := EncryptOwner(d, "pw"); err != nil {
		t.Fatal(err)
	}
	// Corrupt /U so the empty-user-password check fails, simulating a doc
	// that genuinely needs a user password.
	enc, _ := d.ResolveDict(d.Trailer.Get("Encrypt"))
	u := enc.Get("U").(String)
	u.Value[0] ^= 0xff
	if err := RemoveOwnerPassword(d); err == nil {
		t.Error("expected user-password-required error")
	}
}

// encryptVariants are owner-encrypted documents whose /Encrypt dictionary
// is edited away from the revision 2 form the handler verifies. Each must
// fail with ErrEncrypted: decrypting any of them would read bytes
// differently from a conforming reader, or without checking the key.
var encryptVariants = []struct {
	name string
	edit func(enc Dict)
}{
	{"filter-pubsec", func(enc Dict) { enc["Filter"] = Name("Adobe.PubSec") }},
	{"filter-missing", func(enc Dict) { delete(enc, "Filter") }},
	{"revision-3", func(enc Dict) { enc["R"] = Integer(3) }},
	{"revision-missing", func(enc Dict) { delete(enc, "R") }},
	{"v-2", func(enc Dict) { enc["V"] = Integer(2) }},
	{"v-4", func(enc Dict) { enc["V"] = Integer(4) }},
	{"v-not-integer", func(enc Dict) { enc["V"] = Name("One") }},
	{"length-128", func(enc Dict) { enc["Length"] = Integer(128) }},
	{"o-missing", func(enc Dict) { delete(enc, "O") }},
	{"o-short", func(enc Dict) { enc["O"] = String{Value: enc["O"].(String).Value[:31], Hex: true} }},
	{"u-missing", func(enc Dict) { delete(enc, "U") }},
	{"u-long", func(enc Dict) {
		enc["U"] = String{Value: append(append([]byte(nil), enc["U"].(String).Value...), 0), Hex: true}
	}},
	{"u-mismatch", func(enc Dict) {
		u := append([]byte(nil), enc["U"].(String).Value...)
		u[0] ^= 0xff
		enc["U"] = String{Value: u, Hex: true}
	}},
	{"cf", func(enc Dict) {
		enc["CF"] = Dict{"StdCF": Dict{"CFM": Name("V2"), "Length": Integer(5)}}
	}},
	{"stmf-identity", func(enc Dict) { enc["StmF"] = Name("Identity") }},
	{"strf-identity", func(enc Dict) { enc["StrF"] = Name("Identity") }},
	{"eff", func(enc Dict) { enc["EFF"] = Name("StdCF") }},
}

// encryptedVariantBytes owner-encrypts a one-script document, applies
// edit to its /Encrypt dictionary (nil = unedited) and serializes it.
func encryptedVariantBytes(t *testing.T, edit func(Dict)) []byte {
	t.Helper()
	d := buildSimpleDoc(t, "app.alert('variant');")
	if err := EncryptOwner(d, "owner"); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		enc, ok := d.ResolveDict(d.Trailer.Get("Encrypt"))
		if !ok {
			t.Fatal("no /Encrypt dictionary")
		}
		edit(enc)
	}
	data, err := Write(d, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRemoveOwnerPasswordRejectsUnverifiedVariants(t *testing.T) {
	for _, tc := range encryptVariants {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Parse(encryptedVariantBytes(t, tc.edit), ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := RemoveOwnerPassword(d); !errors.Is(err, ErrEncrypted) {
				t.Fatalf("RemoveOwnerPassword = %v, want ErrEncrypted", err)
			}
			if !d.IsEncrypted() {
				t.Error("a rejected document lost its /Encrypt")
			}
		})
	}
}

// The explicit spellings of the revision 2 defaults are the same handler.
func TestRemoveOwnerPasswordAcceptsExplicitDefaults(t *testing.T) {
	d, err := Parse(encryptedVariantBytes(t, func(enc Dict) {
		enc["V"] = Integer(1)
		enc["Length"] = Integer(40)
	}), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RemoveOwnerPassword(d); err != nil {
		t.Fatal(err)
	}
	cs, err := ReconstructChains(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Chains) != 1 || cs.Chains[0].Source != "app.alert('variant');" {
		t.Errorf("chains after removal = %+v", cs.Chains)
	}
}

// Every variant is committed as a FuzzParse seed, so the fuzz target's
// RemoveOwnerPassword call replays each rejection on every test run.
func TestEncryptVariantsAreFuzzSeeds(t *testing.T) {
	for _, tc := range encryptVariants {
		path := filepath.Join("testdata", "fuzz", "FuzzParse", "encrypt-"+tc.name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", encryptedVariantBytes(t, tc.edit))
		if string(got) != want {
			t.Errorf("%s: committed seed differs from the variant", tc.name)
		}
	}
}
