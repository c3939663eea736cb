package pdf

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNotFound is returned when an object or dictionary entry is missing.
var ErrNotFound = errors.New("pdf: object not found")

// Document is an in-memory PDF document: a numbered object store plus
// trailer and header metadata. It supports both parsed documents and
// documents built from scratch (corpus generation, instrumentation output).
type Document struct {
	// Header describes the %PDF- header as found in the source bytes.
	Header HeaderInfo
	// Trailer is the trailer dictionary (at minimum /Root).
	Trailer Dict
	// Recovered reports that the lenient scavenger was needed.
	Recovered bool
	// HexNameCount counts names that used #xx escapes in the source.
	HexNameCount int
	// SourceSize is the byte size of the parsed source (0 for built docs).
	SourceSize int

	objects map[int]IndirectObject
	maxNum  int
}

func newDocument(src []byte) *Document {
	return &Document{
		objects:    make(map[int]IndirectObject),
		Trailer:    nil,
		SourceSize: len(src),
	}
}

// NewDocument returns an empty document with a valid 1.7 header.
func NewDocument() *Document {
	return &Document{
		Header:  HeaderInfo{Offset: 0, Version: "1.7", ValidVersion: true},
		Trailer: Dict{},
		objects: make(map[int]IndirectObject),
	}
}

func (d *Document) put(obj IndirectObject) {
	d.objects[obj.Num] = obj
	if obj.Num > d.maxNum {
		d.maxNum = obj.Num
	}
}

// Put inserts or replaces an indirect object.
func (d *Document) Put(obj IndirectObject) { d.put(obj) }

// Add allocates the next free object number for body and returns its ref.
func (d *Document) Add(body Object) Ref {
	d.maxNum++
	d.put(IndirectObject{Num: d.maxNum, Object: body})
	return Ref{Num: d.maxNum}
}

// Delete removes an object by number.
func (d *Document) Delete(num int) { delete(d.objects, num) }

// Get returns the indirect object with the given number.
func (d *Document) Get(num int) (IndirectObject, bool) {
	obj, ok := d.objects[num]
	return obj, ok
}

// Len returns the number of indirect objects.
func (d *Document) Len() int { return len(d.objects) }

// Numbers returns all object numbers in ascending order.
func (d *Document) Numbers() []int {
	nums := make([]int, 0, len(d.objects))
	for n := range d.objects {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums
}

// Resolve follows indirect references until a non-reference object is
// reached. Reference loops and dangling references resolve to Null.
func (d *Document) Resolve(obj Object) Object {
	seen := make(map[int]bool)
	for {
		ref, ok := obj.(Ref)
		if !ok {
			return obj
		}
		if seen[ref.Num] {
			return Null{}
		}
		seen[ref.Num] = true
		io, ok := d.objects[ref.Num]
		if !ok {
			return Null{}
		}
		obj = io.Object
	}
}

// ResolveDict resolves obj and returns it as a Dict when possible.
func (d *Document) ResolveDict(obj Object) (Dict, bool) {
	switch v := d.Resolve(obj).(type) {
	case Dict:
		return v, true
	case *Stream:
		return v.Dict, true
	default:
		return nil, false
	}
}

// Catalog returns the document catalog dictionary.
func (d *Document) Catalog() (Dict, error) {
	if d.Trailer == nil {
		return nil, fmt.Errorf("catalog: %w (no trailer)", ErrNotFound)
	}
	cat, ok := d.ResolveDict(d.Trailer.Get("Root"))
	if !ok {
		return nil, fmt.Errorf("catalog: %w", ErrNotFound)
	}
	return cat, nil
}

// UnresolvedObjectStreams reports object-stream structure the parser does
// not expand: a stream whose /Type is /ObjStm or /XRef, or a trailer
// naming an /XRefStm. Objects packed inside object streams are invisible
// to chain reconstruction, so a document showing any of these cannot be
// called script-free. It inspects parsed objects only, never the source
// bytes; hex-escaped names arrive here already decoded by the lexer.
func (d *Document) UnresolvedObjectStreams() bool {
	if d.Trailer.Get("XRefStm") != nil {
		return true
	}
	for _, obj := range d.objects {
		if s, ok := obj.Object.(*Stream); ok {
			if t, _ := s.Dict.Get("Type").(Name); t == "ObjStm" || t == "XRef" {
				return true
			}
		}
	}
	return false
}

// IsEmptyObject reports whether an object body counts as an "empty object"
// for static feature F4: a null body, an empty dictionary, or an empty
// array. Malicious documents use these as decoys at the end of Javascript
// chains.
func IsEmptyObject(obj Object) bool {
	switch v := obj.(type) {
	case nil, Null:
		return true
	case Dict:
		return len(v) == 0
	case Array:
		return len(v) == 0
	case String:
		return len(v.Value) == 0
	default:
		return false
	}
}

// CountEmptyObjects returns the number of empty indirect objects in the
// document (static feature F4).
func (d *Document) CountEmptyObjects() int {
	count := 0
	for _, obj := range d.objects {
		if IsEmptyObject(obj.Object) {
			count++
		}
	}
	return count
}

// refsIn collects every Ref appearing anywhere inside obj.
func refsIn(obj Object, out []Ref) []Ref {
	switch v := obj.(type) {
	case Ref:
		out = append(out, v)
	case Array:
		for _, el := range v {
			out = refsIn(el, out)
		}
	case Dict:
		for _, k := range v.SortedKeys() {
			out = refsIn(v[k], out)
		}
	case *Stream:
		out = refsIn(v.Dict, out)
	}
	return out
}

// ReferenceIndex maps each object number to the object numbers that
// reference it (parents) and that it references (children).
type ReferenceIndex struct {
	Parents  map[int][]int
	Children map[int][]int
	// TrailerRefs are objects referenced directly from the trailer.
	TrailerRefs []int
}

// BuildReferenceIndex scans all objects (and the trailer) once.
func (d *Document) BuildReferenceIndex() *ReferenceIndex {
	idx := &ReferenceIndex{
		Parents:  make(map[int][]int, len(d.objects)),
		Children: make(map[int][]int, len(d.objects)),
	}
	for _, num := range d.Numbers() {
		obj := d.objects[num]
		for _, ref := range refsIn(obj.Object, nil) {
			idx.Children[num] = append(idx.Children[num], ref.Num)
			idx.Parents[ref.Num] = append(idx.Parents[ref.Num], num)
		}
	}
	if d.Trailer != nil {
		for _, ref := range refsIn(d.Trailer, nil) {
			idx.TrailerRefs = append(idx.TrailerRefs, ref.Num)
		}
	}
	return idx
}
