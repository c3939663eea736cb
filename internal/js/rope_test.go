package js

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// runRopeMin runs src on the VM with string `+` roped at or above minBytes.
func runRopeMin(src string, minBytes int, lim diffLimits) engineTrace {
	prev := ropeMinBytes
	ropeMinBytes = minBytes
	defer func() { ropeMinBytes = prev }()
	return runEngine(src, lim, NewUnitCache(4<<20))
}

// FuzzRopeVsFlat is the rope differential: whatever a script does, the
// rope representation must be invisible. Each input runs fully flat, then
// with every concatenation roped (threshold 1: deep trees, no leaf merges),
// then at a small threshold that exercises leaf merging. Every observable
// must match the flat run: completion value, error class, step and heap
// totals, the alloc-delta stream, and each large-string observation
// (length, content digest and marker search, all read without flattening).
// A committed seed also replays its golden line.
func FuzzRopeVsFlat(f *testing.F) {
	for _, s := range differentialScripts {
		f.Add(s)
	}
	for _, s := range fuzzSeedCorpus("FuzzJSInterp") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return
		}
		if _, ok := loadGolden(t)[goldenKey(src, ropeLimits)]; ok {
			assertGolden(t, src, ropeLimits)
		}
		flat := runRopeMin(src, math.MaxInt, ropeLimits)
		for _, minBytes := range []int{1, 16} {
			if roped := runRopeMin(src, minBytes, ropeLimits); !reflect.DeepEqual(flat, roped) {
				t.Fatalf("rope divergence at threshold %d\nscript: %s\nflat:  %+v\nroped: %+v", minBytes, src, flat, roped)
			}
		}
	})
}

// TestValueSize pins the Value layout: a wider Value measurably raises
// per-document allocation on the scan path.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 56", got)
	}
}

// TestRopeDeepChains builds left-deep (s += x) and right-deep (s = x + s)
// chains far deeper than any recursion should go, and checks flattening,
// edge reads and marker search, including markers that straddle leaves.
func TestRopeDeepChains(t *testing.T) {
	prev := ropeMinBytes
	ropeMinBytes = 1 // one node per concatenation, no leaf merges
	defer func() { ropeMinBytes = prev }()

	const depth = 200_000
	pieces := []string{"PA", "Y", "LOAD", ":", "xy"}
	it := New()
	it.MaxHeap = math.MaxInt64
	join := func(l, r Value) Value {
		v, err := it.concat(l, r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var want strings.Builder
	left, right := StringValue(""), StringValue("")
	for i := 0; i < depth; i++ {
		p := StringValue(pieces[i%len(pieces)])
		want.WriteString(p.str)
		left = join(left, p)
		right = join(StringValue(pieces[(depth-1-i)%len(pieces)]), right)
	}
	for name, v := range map[string]Value{"left": left, "right": right} {
		if v.rope == nil {
			t.Fatalf("%s: chain is not a rope", name)
		}
		if !v.Contains("PAYLOAD:") || v.Contains("PAYLOAD:PAY") {
			t.Fatalf("%s: marker search wrong", name)
		}
		if got := v.Str(); got != want.String() {
			t.Fatalf("%s: flattened content differs", name)
		}
		if v.rope.ln != nil || v.rope.rn != nil {
			t.Fatalf("%s: flattened rope kept its sides", name)
		}
	}
}

// TestSprayBlocksStayUnflattened pins the point of ropes: a corpus-shaped
// spray (doubling sled, then sled + payload per block) never builds a
// block's bytes, while the large-string hook still sees every block and
// finds the marker in each.
func TestSprayBlocksStayUnflattened(t *testing.T) {
	it := New()
	var blocks []Value
	it.OnLargeString = func(v Value) {
		if v.Contains(ropeTestMarker) {
			blocks = append(blocks, v)
		}
	}
	_, err := it.Run(`var p = "PAYLOAD:exec=calc.exe|";
		var n = unescape("%0c%0c%0c%0c");
		while (n.length < 524288) n += n;
		var b = [];
		for (var i = 0; i < 16; i++) b[i] = n + p;
		b.length;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 16 {
		t.Fatalf("hook saw %d payload blocks, want 16", len(blocks))
	}
	for i, v := range blocks {
		if v.rope == nil || v.rope.flat != "" {
			t.Fatalf("block %d was copied or flattened", i)
		}
	}
	if got := blocks[0].Str(); !strings.HasSuffix(got, "PAYLOAD:exec=calc.exe|") || len(got) != 524288+22 {
		t.Fatalf("block content wrong (len %d)", len(got))
	}
}

// TestRopeMaxStringLen checks that the string-length cap still trips at
// the same doubling: a roped string past maxStringLen is refused before it
// is charged, exactly as the flat copy was.
func TestRopeMaxStringLen(t *testing.T) {
	it := New()
	it.MaxHeap = 1 << 40
	_, err := it.Run(`var s = "AAAAAAAA"; while (true) s += s;`)
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("err = %v, want ErrHeapLimit", err)
	}
	// Strings of 16 B .. 1 GiB were charged two bytes per unit; the 2 GiB
	// doubling was refused.
	if want := int64(2 * (1<<31 - 16)); it.HeapBytes != want {
		t.Fatalf("HeapBytes = %d, want %d", it.HeapBytes, want)
	}
}

// TestArrayTruncateLinear is the regression test for quadratic truncation:
// each deleted index used to rescan and shift the key list, so a 200k
// element truncate took tens of seconds while charging few steps. Only the
// truncating run is timed, not building the array.
func TestArrayTruncateLinear(t *testing.T) {
	it := New()
	if _, err := it.Run(`var a = []; for (var i = 0; i < 200000; i++) a[i] = i;`); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, err := it.Run(`a.length = 10; var k = 0; for (var p in a) k++;
		a.length = 0; a.length + ":" + k + ":" + a[5];`)
	d := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := ToDisplay(v); got != "0:10:undefined" {
		t.Fatalf("got %q", got)
	}
	// Truncation charges no steps of its own; the count is the one the
	// per-index implementation reported.
	if got := it.Steps(); got != 2000063 {
		t.Fatalf("Steps() = %d, want 2000063", got)
	}
	if d > 5*time.Second {
		t.Fatalf("truncate took %v", d)
	}
}
