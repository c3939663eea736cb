package corpus

import (
	"math/rand"
	"testing"

	"pdfshield/internal/js"
)

// TestArrayScriptAccountingPinned pins the step and heap totals of the
// corpus scripts that write the most array elements. The step budget and
// the heap cap are detection semantics (a spray is judged by its heap,
// a runaway by its steps), so a change to how the engine stores arrays
// must leave both totals exactly as they are.
func TestArrayScriptAccountingPinned(t *testing.T) {
	type pin struct {
		name  string
		src   string
		steps int64
		heap  int64
	}
	pins := []pin{
		{"heavy-rows", benignHeavyScripts[0], 525024, 6117062},
		{"heavy-cells", benignHeavyScripts[1], 282532, 12180538},
		{"heavy-log", benignHeavyScripts[2], 1260017, 18489098},
		{"heavy-words", benignHeavyScripts[3], 400016, 1495618},
		{"spray", sprayJS(rand.New(rand.NewSource(1)), "payload", 2), 180, 4194360},
	}
	for _, p := range pins {
		it := js.New()
		it.This = js.ObjectValue(fieldHost())
		if _, err := it.Run(p.src); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if it.Steps() != p.steps || it.HeapBytes != p.heap {
			t.Errorf("%s: steps %d heap %d, pinned steps %d heap %d", p.name, it.Steps(), it.HeapBytes, p.steps, p.heap)
		}
	}
}

// fieldHost is a document object whose getField returns a fresh field,
// enough for the report builders' last lines.
func fieldHost() *js.Object {
	doc := js.NewHostObject("doc")
	doc.Set("getField", js.ObjectValue(js.NewHostFunc("getField", func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		return js.ObjectValue(js.NewHostObject("field")), nil
	})))
	return doc
}
