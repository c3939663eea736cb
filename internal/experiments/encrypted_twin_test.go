package experiments

import (
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/pdf"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/triage"
)

// The encrypted-twin gate is a metamorphic check of owner-password
// handling. An owner-only password (empty user password) is a transform
// any attacker gets for free, and the front end strips it with a verified
// decryption, so a document and its owner-encrypted twin must be judged
// alike: the same triage route at auto, the same verdict at every depth.
// Each twin is compared with its plaintext re-serialisation through the
// same writer, not with the original bytes: the writer normalises the
// header (F2) and the layout, which is the writer's doing, not the
// encryption's.

// twinPassword is the owner password of every twin.
const twinPassword = "pdfshield-owner"

// reserialize parses raw and writes it back without changes.
func reserialize(raw []byte) ([]byte, error) {
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return nil, err
	}
	return pdf.Write(doc, pdf.WriteOptions{})
}

// ownerEncrypt parses raw, encrypts it with an owner-only password and
// writes it back.
func ownerEncrypt(raw []byte) ([]byte, error) {
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return nil, err
	}
	if err := pdf.EncryptOwner(doc, twinPassword); err != nil {
		return nil, err
	}
	return pdf.Write(doc, pdf.WriteOptions{})
}

// TestEncryptedTwinGate builds, for every detection-gate document that is
// not already encrypted, its plaintext re-serialisation and its
// owner-encrypted twin, scans each population in fresh Systems at
// standard, auto and deep depth, and compares them by document ID.
func TestEncryptedTwinGate(t *testing.T) {
	cfg := Config{Scale: gateScale}
	var plain, twins []gateDoc
	for _, d := range gateCorpus(cfg) {
		doc, err := pdf.Parse(d.Raw, pdf.ParseOptions{})
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if doc.IsEncrypted() {
			continue
		}
		p, err := reserialize(d.Raw)
		if err != nil {
			t.Fatalf("%s: re-serialise: %v", d.ID, err)
		}
		e, err := ownerEncrypt(d.Raw)
		if err != nil {
			t.Fatalf("%s: encrypt: %v", d.ID, err)
		}
		pd, ed := d, d
		pd.Raw, ed.Raw = p, e
		plain = append(plain, pd)
		twins = append(twins, ed)
	}
	if len(twins) == 0 {
		t.Fatal("no gate document to encrypt")
	}
	t.Logf("%d twins", len(twins))

	for _, depth := range gateDepths {
		pv, pFailed := runGate(t, cfg, plain, depth)
		tv, tFailed := runGate(t, cfg, twins, depth)
		if pFailed != 0 || tFailed != 0 {
			t.Errorf("%s: failed documents: plaintext %d, twins %d, want 0", depth, pFailed, tFailed)
		}
		for _, d := range twins {
			p, tw := pv[d.ID], tv[d.ID]
			if p == nil || tw == nil {
				t.Errorf("%s: %s has no verdict (plaintext %v, twin %v)", depth, d.ID, p != nil, tw != nil)
				continue
			}
			mal := d.Label == corpus.LabelMalicious
			if !mal && (p.Malicious || tw.Malicious) {
				t.Errorf("%s: false positive %s (plaintext %v, twin %v)", depth, d.ID, p.Malicious, tw.Malicious)
			}
			if tw.Malicious != p.Malicious {
				t.Errorf("%s: %s twin malicious=%v, plaintext %v", depth, d.ID, tw.Malicious, p.Malicious)
			}
			if depth != pipeline.DepthAuto {
				continue
			}
			if tw.TriageRoute != p.TriageRoute {
				t.Errorf("auto: %s twin routed %q, plaintext %q (twin uncertain %v)", d.ID, tw.TriageRoute, p.TriageRoute, uncertainOf(tw))
			}
			if mal && tw.TriageRoute == string(triage.RouteBenign) {
				t.Errorf("auto: malicious twin %s (%s) routed benign", d.ID, d.Family)
			}
		}
	}
}

// uncertainOf lists a verdict's fail-safe triage reasons (nil without a
// triage decision).
func uncertainOf(v *pipeline.Verdict) []string {
	if v.Triage == nil {
		return nil
	}
	return v.Triage.Uncertain
}
