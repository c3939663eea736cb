package triage

import (
	"bytes"
	"math"

	"pdfshield/internal/instrument"
)

// Census is the PDFInspect-style structural survey of one submission:
// byte-level statistics over the original bytes plus the structural facts
// the front end already established. Counts that legitimately occur in
// the benign population (/OpenAction on a form document, /AA on a page)
// are reported but do not gate; the Flags list holds the conditions that
// disqualify confident-benign outright.
type Census struct {
	// SizeBytes is the raw submission size.
	SizeBytes int `json:"size_bytes"`
	// EOFMarkers counts %%EOF occurrences; more than one indicates
	// incremental updates (or an appended-object attack) and routes the
	// document to the dynamic tier.
	EOFMarkers int `json:"eof_markers"`
	// Entropy is the Shannon entropy (bits/byte) over the first
	// entropySample bytes. Reported for operators; compressed benign
	// streams score high too, so it never gates on its own.
	Entropy float64 `json:"entropy"`
	// Names counts suspicious name occurrences in the raw bytes.
	Names NameCensus `json:"names"`
	// Objects / EmptyObjects / HexNames / EncodingLevels / Ratio mirror
	// the front end's structural findings.
	Objects        int     `json:"objects"`
	EmptyObjects   int     `json:"empty_objects"`
	HexNames       int     `json:"hex_names"`
	EncodingLevels int     `json:"encoding_levels"`
	Ratio          float64 `json:"ratio"`
	// Static is the normalized F1–F5 vector (Table VII rules).
	Static [5]int `json:"static"`
	// Recovered and EmbeddedPDFs are hard fail-safe markers: scavenged
	// parses and compound documents always take the dynamic path.
	Recovered    bool `json:"recovered,omitempty"`
	EmbeddedPDFs int  `json:"embedded_pdfs,omitempty"`
	// Encrypted reports that the front end removed an owner-only password.
	// It is a reported fact, not a flag: removal succeeds only after the
	// empty user password's key checks against /U, so the scripts and
	// features above are those of the verified plaintext, and the names
	// counted over the raw bytes are never encrypted. The document routes
	// exactly like its plaintext twin; any other encryption fails in the
	// front end and never reaches triage.
	Encrypted bool `json:"encrypted,omitempty"`
	// Flags lists the census conditions that disqualify confident-benign
	// (sorted; empty for a clean document).
	Flags []string `json:"flags,omitempty"`
}

// NameCensus counts suspicious PDF names in the raw bytes. Matching is on
// name boundaries, so /AA does not match /AABB; hex-escaped spellings
// (/Lau#6ech) are invisible here by design — they raise F3 instead.
type NameCensus struct {
	AA           int `json:"aa,omitempty"`
	OpenAction   int `json:"open_action,omitempty"`
	JavaScript   int `json:"javascript,omitempty"`
	Launch       int `json:"launch,omitempty"`
	RichMedia    int `json:"rich_media,omitempty"`
	EmbeddedFile int `json:"embedded_file,omitempty"`
	ObjStm       int `json:"obj_stm,omitempty"`
	XFA          int `json:"xfa,omitempty"`
}

// entropySample bounds the entropy scan so triage stays sub-millisecond
// on large documents.
const entropySample = 512 << 10

// CensusDim is the dimensionality of Census.FeatureVector.
const CensusDim = 16

// FeatureVector flattens the census into a fixed-width dense vector for
// the internal/ml toolbox, so classifiers (and the Table IX baselines)
// can train on the same unified static extraction the triage tier gates
// on. Ordering is part of the trained-model contract; append, never
// reorder.
func (c Census) FeatureVector() []float64 {
	v := make([]float64, CensusDim)
	v[0] = math.Log1p(float64(c.SizeBytes))
	v[1] = float64(c.EOFMarkers)
	v[2] = c.Entropy
	v[3] = float64(c.Names.AA)
	v[4] = float64(c.Names.OpenAction)
	v[5] = float64(c.Names.JavaScript)
	v[6] = float64(c.Names.Launch)
	v[7] = float64(c.Names.RichMedia)
	v[8] = float64(c.Names.EmbeddedFile)
	v[9] = float64(c.Names.ObjStm)
	v[10] = float64(c.Names.XFA)
	v[11] = float64(c.Objects)
	v[12] = float64(c.EmptyObjects + c.HexNames)
	v[13] = float64(c.EncodingLevels)
	v[14] = c.Ratio
	v[15] = float64(c.Static[0] + c.Static[1] + c.Static[2] + c.Static[3] + c.Static[4])
	return v
}

// TakeCensus surveys one submission. res may be nil (bytes-only survey,
// used by fuzzing); a nil res flags "no-analysis" so the result can never
// route confident-benign.
func TakeCensus(raw []byte, res *instrument.Result) Census {
	c := Census{
		SizeBytes:  len(raw),
		EOFMarkers: bytes.Count(raw, []byte("%%EOF")),
		Entropy:    shannonEntropy(raw),
		Names: NameCensus{
			AA:           countName(raw, "/AA"),
			OpenAction:   countName(raw, "/OpenAction"),
			JavaScript:   countName(raw, "/JavaScript"),
			Launch:       countName(raw, "/Launch"),
			RichMedia:    countName(raw, "/RichMedia"),
			EmbeddedFile: countName(raw, "/EmbeddedFile"),
			ObjStm:       countName(raw, "/ObjStm"),
			XFA:          countName(raw, "/XFA"),
		},
	}
	flag := func(f string) { c.Flags = append(c.Flags, f) }
	if res == nil {
		flag("no-analysis")
	} else {
		f := res.Features
		c.Objects = res.ObjectCount
		c.EmptyObjects = f.EmptyObjects
		c.HexNames = f.HexCodeCount
		c.EncodingLevels = f.EncodingLevels
		c.Ratio = f.Ratio
		c.Static = f.Vector()
		c.Encrypted = res.OwnerPasswordRemoved
		c.EmbeddedPDFs = len(res.Embedded)
		c.Recovered = res.Recovered
		// The F1–F5 positives are exactly the suspicious minority of the
		// corpus (Figure 6 / Table VI); any positive forfeits the fast
		// path. Flag names stay stable for journal consumers.
		if c.Static[0] == 1 {
			flag("f1-chain-ratio")
		}
		if c.Static[1] == 1 {
			flag("f2-header-obfuscation")
		}
		if c.Static[2] == 1 {
			flag("f3-hex-names")
		}
		if c.Static[3] == 1 {
			flag("f4-empty-objects")
		}
		if c.Static[4] == 1 {
			flag("f5-encoding-levels")
		}
		if c.Recovered {
			flag("recovered-parse")
		}
		if c.EmbeddedPDFs > 0 {
			flag("embedded-pdf")
		}
		if res.UnresolvedObjectStreams {
			flag("objstm-unresolved")
		}
	}
	if c.EOFMarkers > 1 {
		flag("multiple-eof")
	}
	if c.Names.Launch > 0 {
		flag("name-launch")
	}
	if c.Names.RichMedia > 0 {
		flag("name-richmedia")
	}
	if res != nil && c.EmbeddedPDFs == 0 && c.Names.EmbeddedFile > 0 {
		// An /EmbeddedFile name the front end did not resolve into an
		// analyzable attachment (non-PDF payload, broken tree): dynamic.
		flag("name-embeddedfile")
	}
	return c
}

// countName counts occurrences of a PDF name on a name boundary: the
// match must not be followed by a regular name character (so /AA does not
// count /AAPL) or by a #xx escape continuing the name.
func countName(raw []byte, name string) int {
	pat := []byte(name)
	n, off := 0, 0
	for {
		i := bytes.Index(raw[off:], pat)
		if i < 0 {
			return n
		}
		end := off + i + len(pat)
		if end >= len(raw) || !isNameChar(raw[end]) {
			n++
		}
		off += i + len(pat)
	}
}

// isNameChar reports whether c continues a PDF name token.
func isNameChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '#' || c == '_' || c == '-' || c == '.' || c == '+':
		return true
	}
	return false
}

// shannonEntropy computes bits/byte over (a prefix of) the input.
func shannonEntropy(raw []byte) float64 {
	if len(raw) == 0 {
		return 0
	}
	if len(raw) > entropySample {
		raw = raw[:entropySample]
	}
	var freq [256]int
	for _, b := range raw {
		freq[b]++
	}
	total := float64(len(raw))
	var h float64
	for _, f := range freq {
		if f == 0 {
			continue
		}
		p := float64(f) / total
		h -= p * math.Log2(p)
	}
	return h
}
