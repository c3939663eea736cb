package pdf

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// ErrParse is wrapped by all parser errors.
var ErrParse = errors.New("pdf parse error")

// headerSearchWindow is how far into the file a %PDF- header may legally
// appear (PDF spec: within the first 1024 bytes).
const headerSearchWindow = 1024

// HeaderInfo records what the parser learned about the file header; it
// feeds static feature F2 (header obfuscation).
type HeaderInfo struct {
	// Offset is the byte offset of "%PDF-", or -1 when absent.
	Offset int
	// Version is the textual version after "%PDF-" (e.g. "1.7").
	Version string
	// ValidVersion reports whether Version parses as a plausible PDF
	// version (major 1-2, minor 0-9).
	ValidVersion bool
}

// Obfuscated reports whether the header would count as obfuscated under the
// paper's F2 definition: missing, not at offset zero, or carrying an invalid
// version number.
func (h HeaderInfo) Obfuscated() bool {
	return h.Offset != 0 || !h.ValidVersion
}

// Parser parses a whole PDF file from memory.
type Parser struct {
	src    []byte
	lex    *Lexer
	doc    *Document
	strict bool
}

// ParseOptions tunes parsing behaviour.
type ParseOptions struct {
	// Strict disables the lenient object-scavenging fallback.
	Strict bool
}

// Parse parses src into a Document. Malformed files are recovered via a
// lenient scan unless opts.Strict is set.
func Parse(src []byte, opts ParseOptions) (*Document, error) {
	p := &Parser{
		src:    src,
		lex:    NewLexer(src, 0),
		strict: opts.Strict,
		doc:    newDocument(src),
	}
	p.doc.Header = parseHeader(src)

	xrefErr := p.parseViaXref()
	if xrefErr == nil && len(p.doc.objects) > 0 {
		p.doc.HexNameCount = p.lex.HexNameCount
		return p.doc, nil
	}
	if p.strict {
		if xrefErr == nil {
			xrefErr = fmt.Errorf("%w: no objects", ErrParse)
		}
		return nil, xrefErr
	}
	// Lenient mode: scavenge "N G obj" markers the way real readers do with
	// damaged or deliberately malformed documents.
	if err := p.scavenge(); err != nil {
		return nil, err
	}
	if len(p.doc.objects) == 0 {
		return nil, fmt.Errorf("%w: no indirect objects found", ErrParse)
	}
	p.doc.Recovered = true
	p.doc.HexNameCount = p.lex.HexNameCount
	return p.doc, nil
}

func parseHeader(src []byte) HeaderInfo {
	info := HeaderInfo{Offset: -1}
	window := src
	if len(window) > headerSearchWindow {
		window = window[:headerSearchWindow]
	}
	idx := bytes.Index(window, []byte("%PDF-"))
	if idx < 0 {
		return info
	}
	info.Offset = idx
	rest := src[idx+5:]
	end := 0
	for end < len(rest) && end < 8 && !isWhitespace(rest[end]) && rest[end] != '%' {
		end++
	}
	info.Version = string(rest[:end])
	info.ValidVersion = validVersion(info.Version)
	return info
}

func validVersion(v string) bool {
	if len(v) != 3 || v[1] != '.' {
		return false
	}
	major := v[0]
	minor := v[2]
	if major != '1' && major != '2' {
		return false
	}
	return minor >= '0' && minor <= '9'
}

// parseViaXref resolves startxref, walks the xref chain, and parses each
// referenced object.
func (p *Parser) parseViaXref() error {
	start, err := findStartXref(p.src)
	if err != nil {
		return err
	}
	offsets := make(map[int]int) // object num -> byte offset (first xref wins)
	seen := make(map[int]bool)
	for start >= 0 {
		if seen[start] {
			return fmt.Errorf("%w: xref loop at offset %d", ErrParse, start)
		}
		seen[start] = true
		trailer, prev, err := p.parseXrefSection(start, offsets)
		if err != nil {
			return err
		}
		if p.doc.Trailer == nil {
			p.doc.Trailer = trailer
		}
		start = prev
	}
	budget := newParseBudget(len(p.src))
	for num, off := range offsets {
		if off <= 0 || off >= len(p.src) {
			continue
		}
		if budget.exhausted() {
			// A hostile xref can point millions of entries at overlapping
			// unterminated objects, each of which scans to EOF before
			// failing; once the cumulative work bound is hit, stop taking
			// the document's word for where objects live.
			break
		}
		obj, err := p.parseIndirectAt(off, budget)
		if err != nil {
			// Tolerate individual broken entries; the scavenger exists for
			// documents where everything is broken.
			continue
		}
		if obj.Num != num {
			// Wrong offset for this entry; still index by actual number.
		}
		p.doc.put(obj)
	}
	if p.doc.Trailer == nil {
		return fmt.Errorf("%w: missing trailer", ErrParse)
	}
	return nil
}

func findStartXref(src []byte) (int, error) {
	tail := src
	const window = 2048
	if len(tail) > window {
		tail = tail[len(tail)-window:]
	}
	idx := bytes.LastIndex(tail, []byte("startxref"))
	if idx < 0 {
		return 0, fmt.Errorf("%w: startxref not found", ErrParse)
	}
	base := len(src) - len(tail)
	lx := NewLexer(src, base+idx)
	tok, err := lx.Next() // "startxref"
	if err != nil || tok.Type != TokKeyword {
		return 0, fmt.Errorf("%w: malformed startxref", ErrParse)
	}
	tok, err = lx.Next()
	if err != nil || tok.Type != TokInteger {
		return 0, fmt.Errorf("%w: startxref offset missing", ErrParse)
	}
	return int(tok.Int), nil
}

// parseXrefSection parses a classic xref table plus trailer at off. It
// returns the trailer dictionary and the /Prev offset (-1 when absent).
func (p *Parser) parseXrefSection(off int, offsets map[int]int) (Dict, int, error) {
	if off < 0 || off >= len(p.src) {
		return nil, -1, fmt.Errorf("%w: xref offset %d out of range", ErrParse, off)
	}
	lx := NewLexer(p.src, off)
	tok, err := lx.Next()
	if err != nil {
		return nil, -1, err
	}
	if tok.Type != TokKeyword || string(tok.Bytes) != "xref" {
		return nil, -1, fmt.Errorf("%w: expected xref at %d", ErrParse, off)
	}
	for {
		tok, err = lx.Next()
		if err != nil {
			return nil, -1, err
		}
		if tok.Type == TokKeyword && string(tok.Bytes) == "trailer" {
			break
		}
		if tok.Type != TokInteger {
			return nil, -1, fmt.Errorf("%w: malformed xref subsection at %d", ErrParse, tok.Pos)
		}
		first := int(tok.Int)
		tok, err = lx.Next()
		if err != nil || tok.Type != TokInteger {
			return nil, -1, fmt.Errorf("%w: malformed xref count", ErrParse)
		}
		count := int(tok.Int)
		if count < 0 || count > 1<<22 {
			return nil, -1, fmt.Errorf("%w: unreasonable xref count %d", ErrParse, count)
		}
		for i := 0; i < count; i++ {
			offTok, err := lx.Next()
			if err != nil || offTok.Type != TokInteger {
				return nil, -1, fmt.Errorf("%w: malformed xref entry", ErrParse)
			}
			genTok, err := lx.Next()
			if err != nil || genTok.Type != TokInteger {
				return nil, -1, fmt.Errorf("%w: malformed xref entry gen", ErrParse)
			}
			kindTok, err := lx.Next()
			if err != nil || kindTok.Type != TokKeyword {
				return nil, -1, fmt.Errorf("%w: malformed xref entry kind", ErrParse)
			}
			kind := string(kindTok.Bytes)
			num := first + i
			if kind == "n" {
				if _, exists := offsets[num]; !exists {
					offsets[num] = int(offTok.Int)
				}
			}
		}
	}
	op := &objParser{lex: lx, doc: p.doc}
	trailerObj, err := op.parseObject(0)
	if err != nil {
		return nil, -1, err
	}
	trailer, ok := trailerObj.(Dict)
	if !ok {
		return nil, -1, fmt.Errorf("%w: trailer is %s, want dict", ErrParse, trailerObj.Kind())
	}
	prev := -1
	if pv, ok := trailer.Get("Prev").(Integer); ok {
		prev = int(pv)
	}
	return trailer, prev, nil
}

// parseBudget bounds the total lexing work spent on speculative object
// parses (xref-directed and scavenged). Overlapping unterminated objects
// make each failed attempt scan toward EOF, so without a cumulative bound a
// crafted document costs O(markers × filesize) — minutes of CPU for 1 MB of
// input. The budget is a generous multiple of the file size: real damaged
// documents parse nearly disjoint ranges and never approach it.
type parseBudget struct {
	remaining int
}

func newParseBudget(srcLen int) *parseBudget {
	return &parseBudget{remaining: 64*srcLen + 1<<16}
}

func (b *parseBudget) exhausted() bool { return b != nil && b.remaining <= 0 }

func (b *parseBudget) spend(n int) {
	if b != nil && n > 0 {
		b.remaining -= n
	}
}

// parseIndirectAt parses "N G obj ... endobj" at the given offset. The
// work spent is charged against budget (nil = unbounded), including work
// spent on attempts that fail partway.
func (p *Parser) parseIndirectAt(off int, budget *parseBudget) (IndirectObject, error) {
	lx := NewLexer(p.src, off)
	// Share hex-name accounting with the document-level lexer; charge the
	// bytes this attempt advanced over, success or failure.
	defer func() {
		p.lex.HexNameCount += lx.HexNameCount
		budget.spend(lx.Pos() - off)
	}()

	numTok, err := lx.Next()
	if err != nil || numTok.Type != TokInteger {
		return IndirectObject{}, fmt.Errorf("%w: expected object number at %d", ErrParse, off)
	}
	genTok, err := lx.Next()
	if err != nil || genTok.Type != TokInteger {
		return IndirectObject{}, fmt.Errorf("%w: expected generation at %d", ErrParse, off)
	}
	kw, err := lx.Next()
	if err != nil || kw.Type != TokKeyword || string(kw.Bytes) != "obj" {
		return IndirectObject{}, fmt.Errorf("%w: expected 'obj' at %d", ErrParse, off)
	}
	op := &objParser{lex: lx, doc: p.doc}
	body, err := op.parseObject(0)
	if err != nil {
		return IndirectObject{}, err
	}
	// A dict may be followed by a stream.
	if d, ok := body.(Dict); ok {
		save := lx.Pos()
		tok, err := lx.Next()
		if err == nil && tok.Type == TokKeyword && string(tok.Bytes) == "stream" {
			raw, err := readStreamBody(lx, d)
			if err != nil {
				return IndirectObject{}, err
			}
			body = &Stream{Dict: d, Raw: raw}
		} else {
			lx.SetPos(save)
		}
	}
	return IndirectObject{Num: int(numTok.Int), Gen: int(genTok.Int), Object: body}, nil
}

// readStreamBody consumes the bytes between "stream" and "endstream". The
// /Length entry is honoured when it is a direct integer that lands on a
// plausible endstream; otherwise the parser falls back to searching for the
// endstream keyword (hostile documents routinely lie about /Length).
func readStreamBody(lx *Lexer, d Dict) ([]byte, error) {
	src := lx.Src()
	pos := lx.Pos()
	// Per spec, "stream" is followed by CRLF or LF.
	if pos < len(src) && src[pos] == '\r' {
		pos++
	}
	if pos < len(src) && src[pos] == '\n' {
		pos++
	}
	if n, ok := d.Get("Length").(Integer); ok {
		end := pos + int(n)
		if end >= pos && end <= len(src) {
			rest := src[end:]
			trimmed := 0
			for trimmed < len(rest) && isWhitespace(rest[trimmed]) {
				trimmed++
			}
			if bytes.HasPrefix(rest[trimmed:], []byte("endstream")) {
				lx.SetPos(end + trimmed + len("endstream"))
				consumeEndobj(lx)
				return src[pos:end], nil
			}
		}
	}
	idx := bytes.Index(src[pos:], []byte("endstream"))
	if idx < 0 {
		// The whole tail was scanned; reflect that in the lexer position so
		// speculative-parse budgets account for the work.
		lx.SetPos(len(src))
		return nil, fmt.Errorf("%w: unterminated stream at %d", ErrParse, pos)
	}
	end := pos + idx
	// Strip the trailing EOL that precedes endstream.
	for end > pos && (src[end-1] == '\n' || src[end-1] == '\r') {
		end--
	}
	lx.SetPos(pos + idx + len("endstream"))
	consumeEndobj(lx)
	return src[pos:end], nil
}

func consumeEndobj(lx *Lexer) {
	save := lx.Pos()
	tok, err := lx.Next()
	if err != nil || tok.Type != TokKeyword || string(tok.Bytes) != "endobj" {
		lx.SetPos(save)
	}
}

// scavenge scans the whole file for "N G obj" markers and parses each hit.
func (p *Parser) scavenge() error {
	src := p.src
	budget := newParseBudget(len(src))
	for i := 0; i+3 < len(src); i++ {
		if src[i] != 'o' || src[i+1] != 'b' || src[i+2] != 'j' {
			continue
		}
		if i+3 < len(src) && isRegular(src[i+3]) {
			continue // part of a longer keyword
		}
		if i > 0 && isRegular(src[i-1]) {
			continue // e.g. "endobj"
		}
		if budget.exhausted() {
			// Keep what was recovered so far instead of burning quadratic
			// time on overlapping unterminated objects.
			break
		}
		start := backtrackObjHeader(src, i)
		if start < 0 {
			continue
		}
		obj, err := p.parseIndirectAt(start, budget)
		if err != nil {
			continue
		}
		if _, exists := p.doc.objects[obj.Num]; !exists {
			p.doc.put(obj)
		}
	}
	// A trailer may still exist even when xref offsets were broken.
	if p.doc.Trailer == nil {
		if idx := bytes.LastIndex(src, []byte("trailer")); idx >= 0 {
			lx := NewLexer(src, idx+len("trailer"))
			op := &objParser{lex: lx, doc: p.doc}
			if obj, err := op.parseObject(0); err == nil {
				if d, ok := obj.(Dict); ok {
					p.doc.Trailer = d
				}
			}
		}
	}
	if p.doc.Trailer == nil {
		p.doc.Trailer = p.synthesizeTrailer()
	}
	return nil
}

// backtrackObjHeader walks backwards from the 'obj' keyword to find "N G".
func backtrackObjHeader(src []byte, objIdx int) int {
	i := objIdx - 1
	skipWSBack := func() {
		for i >= 0 && isWhitespace(src[i]) {
			i--
		}
	}
	digitsBack := func() (int, bool) {
		end := i
		for i >= 0 && src[i] >= '0' && src[i] <= '9' {
			i--
		}
		if i == end {
			return 0, false
		}
		v, err := strconv.Atoi(string(src[i+1 : end+1]))
		return v, err == nil
	}
	skipWSBack()
	if _, ok := digitsBack(); !ok { // generation
		return -1
	}
	skipWSBack()
	if _, ok := digitsBack(); !ok { // object number
		return -1
	}
	return i + 1
}

// synthesizeTrailer builds a trailer for documents missing one by hunting
// for a /Catalog object.
func (p *Parser) synthesizeTrailer() Dict {
	for num, obj := range p.doc.objects {
		d, ok := obj.Object.(Dict)
		if !ok {
			continue
		}
		if t, ok := d.Get("Type").(Name); ok && t == "Catalog" {
			return Dict{"Root": Ref{Num: num, Gen: obj.Gen}}
		}
	}
	return Dict{}
}

// objParser parses one object (possibly nested) from a lexer.
type objParser struct {
	lex *Lexer
	doc *Document
}

const maxParseDepth = 128

func (op *objParser) parseObject(depth int) (Object, error) {
	tok, err := op.lex.Next()
	if err != nil {
		return nil, err
	}
	return op.parseFromToken(tok, depth)
}

// parseFromToken parses the object starting at tok. Array elements come
// here directly, so the depth bound is checked here, not in parseObject.
func (op *objParser) parseFromToken(tok Token, depth int) (Object, error) {
	if depth > maxParseDepth {
		return nil, fmt.Errorf("%w: nesting depth exceeds %d", ErrParse, maxParseDepth)
	}
	switch tok.Type {
	case TokInteger:
		// Could be "N G R" (reference). Lookahead.
		save := op.lex.Pos()
		genTok, err := op.lex.Next()
		if err == nil && genTok.Type == TokInteger {
			rTok, err2 := op.lex.Next()
			if err2 == nil && rTok.Type == TokKeyword && len(rTok.Bytes) == 1 && rTok.Bytes[0] == 'R' {
				return Ref{Num: int(tok.Int), Gen: int(genTok.Int)}, nil
			}
		}
		op.lex.SetPos(save)
		return Integer(tok.Int), nil
	case TokReal:
		return Real(tok.Real), nil
	case TokString:
		return String{Value: tok.Bytes, Hex: tok.HadHex}, nil
	case TokName:
		return Name(tok.Name), nil
	case TokArrayOpen:
		arr := Array{}
		for {
			t, err := op.lex.Next()
			if err != nil {
				return nil, err
			}
			if t.Type == TokArrayClose {
				return arr, nil
			}
			if t.Type == TokEOF {
				return nil, fmt.Errorf("%w: unterminated array", ErrParse)
			}
			el, err := op.parseFromToken(t, depth+1)
			if err != nil {
				return nil, err
			}
			arr = append(arr, el)
		}
	case TokDictOpen:
		d := Dict{}
		for {
			t, err := op.lex.Next()
			if err != nil {
				return nil, err
			}
			if t.Type == TokDictClose {
				return d, nil
			}
			if t.Type != TokName {
				return nil, fmt.Errorf("%w: dict key must be a name, got %v at %d", ErrParse, t.Type, t.Pos)
			}
			val, err := op.parseObject(depth + 1)
			if err != nil {
				return nil, err
			}
			d[Name(t.Name)] = val
		}
	case TokKeyword:
		switch string(tok.Bytes) {
		case "true":
			return Boolean(true), nil
		case "false":
			return Boolean(false), nil
		case "null":
			return Null{}, nil
		}
		return nil, fmt.Errorf("%w: unexpected keyword %q at %d", ErrParse, tok.Bytes, tok.Pos)
	case TokEOF:
		return nil, fmt.Errorf("%w: unexpected EOF", ErrParse)
	default:
		return nil, fmt.Errorf("%w: unexpected token %v at %d", ErrParse, tok.Type, tok.Pos)
	}
}
