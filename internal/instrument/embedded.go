package instrument

import (
	"bytes"
	"errors"
	"fmt"

	"pdfshield/internal/pdf"
)

// Embedded-document handling implements the §VI extension the paper lists
// as future work: "we will extract static features from both embedded and
// host PDFs. It would be also valuable to instrument embedded documents" —
// closing the embedded-PDF mimicry hole of [8].

// EmbeddedPDF is a PDF payload found inside an /EmbeddedFile stream.
type EmbeddedPDF struct {
	// StreamNum is the host object carrying the file.
	StreamNum int
	// Raw is the decoded embedded document.
	Raw []byte
}

// maxEmbeddedDepth bounds recursive embedding.
const maxEmbeddedDepth = 2

// ExtractEmbeddedPDFs finds embedded PDF documents in a parsed host.
func ExtractEmbeddedPDFs(doc *pdf.Document) []EmbeddedPDF {
	var out []EmbeddedPDF
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
		window := data
		if len(window) > 1024 {
			window = window[:1024]
		}
		if !bytes.Contains(window, []byte("%PDF-")) {
			continue
		}
		out = append(out, EmbeddedPDF{StreamNum: num, Raw: data})
	}
	return out
}

// MergeFeatures combines host and embedded static features: binary
// features OR together, counts and the ratio take the maximum — a hidden
// obfuscated payload cannot launder its features through a clean host.
func MergeFeatures(host StaticFeatures, embedded ...StaticFeatures) StaticFeatures {
	out := host
	for _, e := range embedded {
		if e.Ratio > out.Ratio {
			out.Ratio = e.Ratio
		}
		out.HeaderObfuscated = out.HeaderObfuscated || e.HeaderObfuscated
		out.HexCodeCount += e.HexCodeCount
		out.EmptyObjects += e.EmptyObjects
		if e.EncodingLevels > out.EncodingLevels {
			out.EncodingLevels = e.EncodingLevels
		}
		out.HasJavaScript = out.HasJavaScript || e.HasJavaScript
	}
	return out
}

// AnalyzeDeep extracts static features from the host document and every
// embedded PDF, returning the merged view plus per-embedded features.
func AnalyzeDeep(raw []byte) (merged StaticFeatures, embedded []StaticFeatures, err error) {
	host, _, doc, err := Analyze(raw)
	if err != nil {
		return StaticFeatures{}, nil, err
	}
	merged, embedded = AnalyzeDeepDoc(doc, host)
	return merged, embedded, nil
}

// AnalyzeDeepDoc is AnalyzeDeep for a host document that is already parsed
// and analyzed: callers that ran Analyze keep its *pdf.Document and host
// features instead of re-parsing the same bytes. Embedded payloads are
// parsed individually (their bytes are distinct from the host's).
func AnalyzeDeepDoc(doc *pdf.Document, host StaticFeatures) (merged StaticFeatures, embedded []StaticFeatures) {
	for _, emb := range ExtractEmbeddedPDFs(doc) {
		ef, _, _, err := Analyze(emb.Raw)
		if err != nil {
			continue // undecodable embedded payload: host features stand
		}
		embedded = append(embedded, ef)
	}
	return MergeFeatures(host, embedded...), embedded
}

// EmbeddedDocID names an embedded document for registry and alerts.
func EmbeddedDocID(hostID string, index int) string {
	return fmt.Sprintf("%s::embedded-%d", hostID, index)
}

// instrumentEmbedded recursively instruments embedded PDFs inside doc,
// replacing each /EmbeddedFile stream with the instrumented bytes. Returns
// the per-embedded instrumentation results, and whether any attachment
// was left as-is because it has object streams the parser does not
// resolve (the host inherits that fail-safe flag).
func (ins *Instrumenter) instrumentEmbedded(hostID string, doc *pdf.Document, depth int) (results []*Result, unresolved bool, err error) {
	if depth >= maxEmbeddedDepth {
		return nil, false, nil
	}
	for i, emb := range ExtractEmbeddedPDFs(doc) {
		id := EmbeddedDocID(hostID, i)
		res, err := ins.instrumentBytesDepth(id, emb.Raw, "", depth+1)
		if err != nil {
			if errors.Is(err, ErrNoJavaScript) {
				continue // scriptless attachment: leave as-is
			}
			if errors.Is(err, ErrUnresolvedObjectStreams) {
				// Nothing visible to instrument, but scripts may hide in
				// its object streams: leave it as-is and flag the host.
				unresolved = true
				continue
			}
			return nil, false, fmt.Errorf("embedded %s: %w", id, err)
		}
		obj, _ := doc.Get(emb.StreamNum)
		stream, ok := obj.Object.(*pdf.Stream)
		if !ok {
			continue
		}
		rawOut, filterObj, err := pdf.EncodeChain([]pdf.Name{pdf.FilterFlate}, res.Output)
		if err != nil {
			return nil, false, err
		}
		newDict := stream.Dict.Clone()
		newDict["Filter"] = filterObj
		doc.Put(pdf.IndirectObject{Num: emb.StreamNum, Gen: obj.Gen, Object: &pdf.Stream{Dict: newDict, Raw: rawOut}})
		results = append(results, res)
	}
	return results, unresolved, nil
}
