package reader

import (
	"strings"

	"pdfshield/internal/pdf"
)

// Prepared is the read-only view of a document that an open reads: the
// facts the reader derives from the bytes before any script runs. Prepare
// builds it once; any number of opens, in any number of processes and
// goroutines, may share it, because no open writes into it. Script
// sources and Info strings are immutable strings, the egg is only ever
// copied out (winos.WriteFile), and an embedded exploit's payload program
// is cloned before an open hands it to its result.
type Prepared struct {
	// rawLen is the document's size in bytes (the memory model charges
	// an open by file size).
	rawLen int
	// scripts are the triggered scripts in run order: each triggered
	// chain that is not itself part of a /Next sequence, followed by the
	// chains of its sequence.
	scripts []string
	// info holds the Info dictionary's string entries in sorted key
	// order, keys lower-cased; title is the last entry keyed "title".
	info  []infoEntry
	title string
	pages int
	// egg is the payload of an egg-hunt sample's embedded egg (nil when
	// the document has none).
	egg []byte
	// embedded lists, in object order, the malformed embedded contents
	// that carry a payload program, with the CVE their renderer has.
	embedded []embeddedExploit
}

type infoEntry struct{ key, text string }

type embeddedExploit struct {
	cve string
	ops []PayloadOp
}

// preparedFixedBytes approximates a view's retained size apart from its
// variable-length contents.
const preparedFixedBytes = 256

// Prepare parses raw once and keeps what an open reads: the scripts of its
// chains (after owner-password removal), the Info strings, the page count,
// the egg and the embedded payloads. It returns the error an open of raw
// would fail with.
func Prepare(raw []byte) (*Prepared, error) {
	doc, err := pdf.Parse(raw, pdf.ParseOptions{})
	if err != nil {
		return nil, err
	}
	if doc.IsEncrypted() {
		// The reader can display owner-password documents (empty user
		// password); decrypt for rendering.
		if err := pdf.RemoveOwnerPassword(doc); err != nil {
			return nil, err
		}
	}
	chains, err := pdf.ReconstructChains(doc)
	if err != nil {
		return nil, err
	}
	v := &Prepared{
		rawLen:   len(raw),
		scripts:  runOrder(chains),
		pages:    countPages(doc),
		egg:      extractEgg(doc),
		embedded: embeddedExploits(doc),
	}
	v.info, v.title = infoStrings(doc)
	return v, nil
}

// Size approximates the bytes the view retains.
func (v *Prepared) Size() int64 {
	n := preparedFixedBytes + len(v.egg)
	for _, s := range v.scripts {
		n += len(s) + 16
	}
	for _, e := range v.info {
		n += len(e.key) + len(e.text) + 32
	}
	for _, e := range v.embedded {
		n += len(e.cve) + 48
		for _, op := range e.ops {
			n += len(op.Kind) + 40
			for _, a := range op.Args {
				n += len(a) + 16
			}
		}
	}
	return int64(n)
}

// runOrder flattens the chain set into the order the reader runs scripts
// in: triggered chains in holder order, skipping those that run as part of
// another chain's /Next sequence, each followed by its sequence.
func runOrder(cs pdf.ChainSet) []string {
	sequential := make(map[int]bool)
	for _, c := range cs.Chains {
		for _, n := range c.NextNums {
			sequential[n] = true
		}
	}
	chainByHolder := make(map[int]*pdf.JSChain)
	for i := range cs.Chains {
		chainByHolder[cs.Chains[i].Holder] = &cs.Chains[i]
	}
	var out []string
	for i := range cs.Chains {
		chain := &cs.Chains[i]
		if !chain.Triggered || sequential[chain.Holder] {
			continue
		}
		out = append(out, chain.Source)
		for _, next := range chain.NextNums {
			if nc, ok := chainByHolder[next]; ok {
				out = append(out, nc.Source)
			}
		}
	}
	return out
}

// infoStrings reads the trailer's Info dictionary: its string entries in
// sorted key order with lower-cased keys, and the title.
func infoStrings(doc *pdf.Document) ([]infoEntry, string) {
	if doc.Trailer == nil {
		return nil, ""
	}
	infoDict, ok := doc.ResolveDict(doc.Trailer.Get("Info"))
	if !ok {
		return nil, ""
	}
	var out []infoEntry
	title := ""
	for _, k := range infoDict.SortedKeys() {
		if s, ok := doc.Resolve(infoDict[k]).(pdf.String); ok {
			e := infoEntry{key: strings.ToLower(string(k)), text: s.Text()}
			out = append(out, e)
			if e.key == "title" {
				title = e.text
			}
		}
	}
	return out, title
}

func countPages(doc *pdf.Document) int {
	count := 0
	for _, num := range doc.Numbers() {
		obj, _ := doc.Get(num)
		if d, ok := obj.Object.(pdf.Dict); ok {
			if t, _ := d.Get("Type").(pdf.Name); t == "Page" {
				count++
			}
		}
	}
	return count
}

// extractEgg finds an embedded egg (an /EmbeddedFile stream whose data
// starts with the egg tag) used by egg-hunt samples.
func extractEgg(doc *pdf.Document) []byte {
	for _, num := range doc.Numbers() {
		obj, _ := doc.Get(num)
		stream, ok := obj.Object.(*pdf.Stream)
		if !ok {
			continue
		}
		if t, _ := stream.Dict.Get("Type").(pdf.Name); t != "EmbeddedFile" {
			continue
		}
		data, _, err := pdf.DecodeChain(stream)
		if err != nil {
			continue
		}
		if strings.HasPrefix(string(data), "EGG!") {
			return data[4:]
		}
	}
	return nil
}

// embeddedExploits finds the embedded Flash/font/XFA content whose
// rendering triggers an out-of-JS-context exploit: malformed content that
// carries a payload program.
func embeddedExploits(doc *pdf.Document) []embeddedExploit {
	var out []embeddedExploit
	for _, num := range doc.Numbers() {
		obj, _ := doc.Get(num)
		stream, ok := obj.Object.(*pdf.Stream)
		if !ok {
			continue
		}
		subtype, _ := stream.Dict.Get("Subtype").(pdf.Name)
		var cve string
		switch subtype {
		case "Flash":
			cve = CVE20103654
		case "TrueType", "CIDFontType0C", "Type1C":
			cve = CVE20102883
		case "XFA", "JBIG2":
			cve = CVE20130640
		default:
			continue
		}
		data, _, err := pdf.DecodeChain(stream)
		if err != nil {
			continue
		}
		ops, hasPayload := DecodePayload(string(data))
		if !hasPayload {
			continue // well-formed embedded content
		}
		out = append(out, embeddedExploit{cve: cve, ops: cloneOps(ops)})
	}
	return out
}

// cloneOps deep-copies a payload program, so the copy shares no backing
// array with its source (the decoded stream, or a shared view).
func cloneOps(ops []PayloadOp) []PayloadOp {
	out := make([]PayloadOp, len(ops))
	for i, op := range ops {
		out[i] = PayloadOp{Kind: PayloadOpKind(strings.Clone(string(op.Kind)))}
		if op.Args != nil {
			out[i].Args = make([]string, len(op.Args))
			for j, a := range op.Args {
				out[i].Args[j] = strings.Clone(a)
			}
		}
	}
	return out
}
