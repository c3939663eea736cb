package baseline

import (
	"strings"

	"pdfshield/internal/js"
)

// Wepawet approximates the JSAND-based service [18][14]: extracted
// Javascript runs in a lightweight emulator with *no* Acrobat API surface,
// and anomaly features flag documents that both allocate like a heap spray
// and materialize shellcode-like strings (long runs of non-printable code
// units). Two documented weaknesses are inherited: context-dependent
// scripts fail before reaching their payload, and printable sleds (English
// Shellcode [26]) evade the shellcode heuristic — the paper measured the
// service at 68% TP.
type Wepawet struct {
	trained bool
}

var _ Detector = (*Wepawet)(nil)

// NewWepawet returns the JSAND-style detector.
func NewWepawet() *Wepawet { return &Wepawet{} }

// Name implements Detector.
func (*Wepawet) Name() string { return "wepawet" }

// Train implements Detector (anomaly rules are fixed).
func (d *Wepawet) Train(benign, malicious [][]byte) error {
	d.trained = true
	return nil
}

const (
	wepawetSprayMB      = 64
	wepawetShellcodeRun = 16
	wepawetEscapeCount  = 8
)

// Classify implements Detector.
func (d *Wepawet) Classify(raw []byte) (bool, error) {
	if !d.trained {
		return false, ErrUntrained
	}
	src := extractJS(raw)
	if src == "" {
		return false, nil
	}
	// Lexical pre-filter: dense %uXXXX escapes are shellcode on their own.
	if strings.Count(src, "%u") >= wepawetEscapeCount {
		return true, nil
	}

	it := js.New()
	it.StepLimit = 20_000_000
	it.MaxHeap = 512 << 20
	shellcodeSeen := false
	it.LargeStringUnits = 4096
	it.OnLargeString = func(v js.Value) {
		if nonPrintableRun(v.Str()) >= wepawetShellcodeRun {
			shellcodeSeen = true
		}
	}
	// No Acrobat API at all: scripts die at their first app/util/this
	// touch; whatever ran before that is what gets judged.
	_, _ = it.Run(src)

	return shellcodeSeen && it.HeapBytes > wepawetSprayMB<<20, nil
}

// nonPrintableRun returns the longest run of non-printable BMP code units.
func nonPrintableRun(s string) int {
	longest, cur := 0, 0
	for _, r := range s {
		if r < 0x20 || (r >= 0x7f && r < 0xa0) || (r >= 0x0c00 && r <= 0x0dff) {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	return longest
}
